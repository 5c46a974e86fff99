"""Resource caps for the componentwise box enumerations.

Every enumerated box is first checked against a :class:`Caps`, so a typo in
a dimension vector fails fast instead of grinding through an astronomical
box. Orbit searches take their own ``budget``; descents are not capped.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, fields

from .errors import InvalidCaps, ResourceLimit

ENV_MAX_BOX = "QUIVERDEC_MAX_BOX"
ENV_MAX_SUM = "QUIVERDEC_MAX_SUM"


@dataclass(frozen=True)
class Caps:
    """Limits on the bound sum and the volume of an enumerated box."""

    max_box_volume: int = 2_000_000
    max_bound_sum: int = 24

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise InvalidCaps(f"{field.name} must be a positive integer, got {value!r}")

    @classmethod
    def from_env(cls) -> "Caps":
        """The default caps with any environment overrides applied."""
        updates = {}
        for env, field in (
            (ENV_MAX_BOX, "max_box_volume"),
            (ENV_MAX_SUM, "max_bound_sum"),
        ):
            raw = os.environ.get(env)
            if raw is not None:
                with suppress(ValueError):  # int() refuses more digits than the interpreter converts
                    updates[field] = raw.strip().isdecimal() and int(raw)
                if not updates.get(field):
                    raise InvalidCaps(f"{env} must be a positive integer, got {raw!r}")
        return cls(**updates)

    def check_box(self, bound) -> None:
        """Reject a componentwise enumeration box that exceeds the caps."""
        total = sum(bound)
        if total > self.max_bound_sum:
            raise ResourceLimit(
                f"bound sum {total} exceeds cap {self.max_bound_sum} (max_bound_sum, {ENV_MAX_SUM}, --max-sum)"
            )
        volume = 1
        for b in bound:
            volume *= b + 1
        if volume > self.max_box_volume:
            raise ResourceLimit(
                f"box volume {volume} exceeds cap {self.max_box_volume}"
                f" (max_box_volume, {ENV_MAX_BOX}, --max-box)"
            )


DEFAULT_CAPS = Caps()
