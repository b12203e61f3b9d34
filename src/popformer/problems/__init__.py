"""Problem registry addressable by name, plus the concrete problem families."""
from __future__ import annotations

from ..errors import ConfigError
from .lsmop import LsmopProblem
from .synthetic import ShiftClusterProblem
from .zdt import ZdtProblem

__all__ = [
    "LsmopProblem",
    "ShiftClusterProblem",
    "ZdtProblem",
    "available_problems",
    "make_problem",
]


def available_problems() -> list[str]:
    names = [f"zdt{v}" for v in ZdtProblem.VARIANTS]
    names += [f"lsmop{v}" for v in LsmopProblem.VARIANTS]
    names.append("shift")
    return names


def make_problem(name: str, d: int | None = None, m: int | None = None, shift=None):
    """Build a problem by registry name, e.g. ``make_problem("zdt1", d=30)``.

    ZDT is always bi-objective; LSMOP defaults to m=3 and d=100*m; the shift
    family defaults to d=8, m=2 and its own step, and only it takes ``shift``.
    """
    key = name.strip().lower()
    if shift is not None and key != "shift":
        raise ConfigError(f"problem {name!r} takes no shift; only the shift family does")
    if key.startswith("zdt") and key[3:].isdigit():
        if m not in (None, 2):
            raise ConfigError("ZDT problems are bi-objective; omit m or pass m=2")
        return ZdtProblem(int(key[3:]), d=30 if d is None else d)
    if key.startswith("lsmop") and key[5:].isdigit():
        m = 3 if m is None else m
        return LsmopProblem(int(key[5:]), d=100 * m if d is None else d, m=m)
    if key == "shift":
        step = {} if shift is None else {"shift": shift}
        return ShiftClusterProblem(d=8 if d is None else d, m=2 if m is None else m, **step)
    raise ConfigError(f"unknown problem {name!r} (known: {', '.join(available_problems())})")
