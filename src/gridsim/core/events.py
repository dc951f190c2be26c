"""Event-action mechanism (observer-style).

Components expose Events; interested parties register actions on them.
Triggering runs the actions registered at trigger time, in registration
order.  Registrations made while a trigger is running take effect from the
next trigger.
"""

from __future__ import annotations

from typing import Callable


class Event:
    def __init__(self, description: str = ""):
        self.description = description
        self._actions: list[Callable[[], None]] = []

    def register(self, action: Callable[[], None]) -> None:
        self._actions.append(action)

    def trigger(self) -> None:
        # Snapshot so mid-trigger registrations apply next trigger only.
        for action in list(self._actions):
            action()

    def __repr__(self) -> str:
        return f"Event({self.description!r}, {len(self._actions)} actions)"
