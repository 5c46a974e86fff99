"""Resource caps for the componentwise box enumerations, the one owner of the cap policy.

Every enumerated box is first checked against a :class:`Caps`, so a typo in a dimension vector fails
fast instead of grinding through an astronomical box; the query engine asks for the refusal before it
covers a vector. Orbit searches take a ``budget`` under the caps' positive-integer rule; descents are not capped.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, fields
from math import prod

from .errors import InvalidCaps, ResourceLimit

ENV_MAX_BOX = "QUIVERDEC_MAX_BOX"
ENV_MAX_SUM = "QUIVERDEC_MAX_SUM"


def require_positive(name: str, value) -> None:
    """InvalidCaps unless ``value`` is a positive int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise InvalidCaps(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Caps:
    """Limits on the bound sum and the volume of an enumerated box."""

    max_box_volume: int = 2_000_000
    max_bound_sum: int = 24

    def __post_init__(self):
        for field in fields(self):
            require_positive(field.name, getattr(self, field.name))

    @classmethod
    def from_env(cls) -> "Caps":
        """The default caps with any environment overrides applied."""
        updates = {}
        for env, field in (
            (ENV_MAX_BOX, "max_box_volume"),
            (ENV_MAX_SUM, "max_bound_sum"),
        ):
            if (raw := os.environ.get(env)) is not None:
                with suppress(ValueError):  # int() refuses more digits than the interpreter converts
                    updates[field] = raw.strip().isdecimal() and int(raw)
                require_positive(env, updates.get(field) or raw)  # the text itself unless it read as a positive int
        return cls(**updates)

    def refusal(self, bound) -> str | None:
        """Why the caps refuse the box below a nonnegative ``bound``, or None; both measures grow with each entry."""
        total = sum(bound)
        if total > self.max_bound_sum:
            return f"bound sum {total} exceeds cap {self.max_bound_sum} (max_bound_sum, {ENV_MAX_SUM}, --max-sum)"
        volume = prod(b + 1 for b in bound)
        if volume > self.max_box_volume:
            return f"box volume {volume} exceeds cap {self.max_box_volume} (max_box_volume, {ENV_MAX_BOX}, --max-box)"
        return None

    def check_box(self, bound) -> None:
        """ResourceLimit, with the refusal as its message, for a box the caps refuse."""
        if reason := self.refusal(bound):
            raise ResourceLimit(reason)


DEFAULT_CAPS = Caps()
