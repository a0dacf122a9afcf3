"""Grid expansion: one base spec x axes -> a deterministic job list.

A :class:`GridSpec` is the declarative form of "sweep these fields":
a base :class:`~repro.exp.spec.ExperimentSpec` plus ordered axes, each a
dotted path into the spec's dict form and the values to try.  Expansion
is a plain cartesian product in declared-axis order (last axis fastest),
so the job list — and therefore the merged result order — is a pure
function of the grid, independent of how the jobs are later scheduled.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.codec import Serialisable
from repro.errors import ConfigurationError
from repro.exp.spec import ExperimentSpec


def _set_path(payload: dict, path: str, value) -> None:
    """Set ``payload[a][b][c] = value`` for ``path`` 'a.b.c'."""
    keys = path.split(".")
    node = payload
    for key in keys[:-1]:
        child = node.get(key)
        if not isinstance(child, dict):
            raise ConfigurationError(
                f"axis path {path!r} crosses non-dict node {key!r}"
            )
        node = child
    if keys[-1] not in node:
        raise ConfigurationError(
            f"axis path {path!r} names unknown field {keys[-1]!r}"
        )
    node[keys[-1]] = value


def _axis_label(value) -> str:
    if isinstance(value, dict):
        return str(value.get("name", "?"))
    return str(value)


@dataclass(frozen=True)
class GridSpec(Serialisable):
    """A named sweep: base spec x ordered axes.

    ``axes`` maps dotted spec paths (e.g. ``stack.cores``,
    ``options.offered_rate_hz``, ``stack.core``) to the values swept,
    as an ordered tuple of ``(path, values)`` pairs.
    """

    name: str
    base: ExperimentSpec
    axes: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a grid needs a name")
        normalised = []
        for path, values in self.axes:
            values = tuple(values)
            if not values:
                raise ConfigurationError(f"axis {path!r} has no values")
            normalised.append((str(path), values))
        object.__setattr__(self, "axes", tuple(normalised))

    def __len__(self) -> int:
        total = 1
        for _path, values in self.axes:
            total *= len(values)
        return total

    def expand(self) -> list[ExperimentSpec]:
        """The grid's jobs, in deterministic product order.

        Each job gets a generated ``label`` (grid name + axis values)
        unless the base spec already carries one.
        """
        base_dict = self.base.to_dict()
        if not self.axes:
            return [ExperimentSpec.from_dict(base_dict)]
        paths = [path for path, _values in self.axes]
        specs = []
        for combo in itertools.product(*(values for _path, values in self.axes)):
            job = copy.deepcopy(base_dict)
            for path, value in zip(paths, combo):
                _set_path(job, path, value)
            if not job.get("label"):
                parts = ",".join(
                    f"{path.rsplit('.', 1)[-1]}={_axis_label(value)}"
                    for path, value in zip(paths, combo)
                )
                job["label"] = f"{self.name}[{parts}]"
            specs.append(ExperimentSpec.from_dict(job))
        return specs


def design_point_grid(
    name: str = "fig7",
    families: Sequence[str] = ("mercury", "iridium"),
    cores_per_stack: Sequence[int] | None = None,
    core_models: Sequence[str] | None = None,
    verb: str = "GET",
    value_bytes: int = 64,
) -> GridSpec:
    """The Fig. 7/8-style analytical grid as a :class:`GridSpec`.

    Defaults mirror :mod:`repro.core.design_space`: every evaluated core
    model x the cores-per-stack sweep, for both families.
    """
    from repro.core.design_space import CORES_PER_STACK_SWEEP, EVALUATED_CORES

    if cores_per_stack is None:
        cores_per_stack = CORES_PER_STACK_SWEEP
    if core_models is None:
        core_models = tuple(core.name for core in EVALUATED_CORES)
    base = ExperimentSpec(
        kind="design_point", verb=verb, value_bytes=value_bytes
    )
    return GridSpec(
        name=name,
        base=base,
        axes=(
            ("stack.family", tuple(families)),
            ("stack.core", tuple(core_models)),
            ("stack.cores", tuple(cores_per_stack)),
        ),
    )
