from gridsim.core import Event


def test_actions_run_in_registration_order():
    ev = Event("test")
    log = []
    ev.register(lambda: log.append("a"))
    ev.register(lambda: log.append("b"))
    ev.register(lambda: log.append("c"))
    ev.trigger()
    assert log == ["a", "b", "c"]


def test_mid_trigger_registration_takes_effect_next_trigger():
    ev = Event()
    log = []

    def first():
        log.append("first")
        ev.register(lambda: log.append("late"))

    ev.register(first)
    ev.trigger()
    assert log == ["first"]
    log.clear()
    ev.trigger()
    assert log == ["first", "late", "late"] or log == ["first", "late"]
    # the first trigger registered one 'late' action; the second trigger
    # registers another, which must not run until the third
    assert log.count("late") == 1


def test_trigger_with_no_actions_is_noop():
    Event().trigger()
