"""Declarative campaign specifications.

A campaign is the unit of "reproduce a whole figure / surface": a sweep
grid (scheme x map x hosts x speed x seed x fault plan) crossed with a
base scenario, expanded deterministically into thousands of
:class:`~repro.experiments.config.ScenarioConfig`\\ s.  The spec is a
small TOML or JSON file::

    name = "storm-sweep"

    [grid]
    scheme = ["flooding", "adaptive-counter"]
    map_units = [1, 5, 9]
    seed = [1, 2, 3, 4]
    faults = ["none", "churny"]

    [scenario]
    num_broadcasts = 30

    [faults.churny]
    spec = "churn:rate=0.01,downtime=5"

Grid axes may sweep any scalar scenario field, dotted
``scheme_params.<key>`` entries, and ``faults`` (by plan name; ``none``
is the fault-free run).  Everything not swept comes from ``[scenario]``
(same schema as :func:`repro.experiments.io.scenario_from_dict`) or the
paper defaults.

The spec's identity is a SHA-256 digest of its canonical JSON form:
two textually different files describing the same campaign get the same
campaign id, and a changed spec can never silently reuse another
campaign's directory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

from repro.experiments.io import scenario_from_dict
from repro.faults.plan import FaultPlan
from repro.schemes import SCHEME_REGISTRY, make_scheme

__all__ = [
    "GRID_AXES",
    "NO_FAULTS",
    "CampaignSpec",
    "SpecError",
    "load_spec",
    "spec_from_dict",
]

#: Scenario fields a grid may sweep directly (scalar-valued).
GRID_AXES = frozenset({
    "scheme", "map_units", "unit_length", "num_hosts", "num_broadcasts",
    "interarrival_max", "max_speed_kmh", "mobility", "seed", "drain",
    "faults",
})

#: Reserved ``faults``-axis value meaning "no fault plan".
NO_FAULTS = "none"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class SpecError(ValueError):
    """The campaign spec is malformed (bad axis, empty grid values, ...)."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign description.

    ``grid`` maps axis name to the tuple of values it sweeps; ``scenario``
    is the base scenario dict (unswept fields); ``fault_plans`` holds the
    named plans a ``faults`` axis refers to.
    """

    name: str
    grid: Dict[str, Tuple[Any, ...]]
    scenario: Dict[str, Any] = field(default_factory=dict)
    fault_plans: Dict[str, FaultPlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SpecError(
                f"campaign name must match {_NAME_RE.pattern}, "
                f"got {self.name!r}"
            )
        for axis, values in self.grid.items():
            if not (axis in GRID_AXES or axis.startswith("scheme_params.")):
                raise SpecError(
                    f"unknown grid axis {axis!r} (allowed: "
                    f"{', '.join(sorted(GRID_AXES))}, scheme_params.<key>)"
                )
            if not values:
                raise SpecError(f"grid axis {axis!r} has no values")
            for v in values:
                if v is not None and not isinstance(v, (bool, int, float, str)):
                    raise SpecError(
                        f"grid axis {axis!r} value {v!r} is not a scalar"
                    )
            if len(set(values)) != len(values):
                raise SpecError(f"grid axis {axis!r} repeats values: {values}")
        for scheme in list(self.grid.get("scheme", ())) + (
            [self.scenario["scheme"]] if "scheme" in self.scenario else []
        ):
            if scheme not in SCHEME_REGISTRY:
                raise SpecError(
                    f"unknown scheme {scheme!r} (known: "
                    f"{', '.join(sorted(SCHEME_REGISTRY))})"
                )
        self._validate_scheme_params()
        for plan_name in self.grid.get("faults", ()):
            if plan_name != NO_FAULTS and plan_name not in self.fault_plans:
                raise SpecError(
                    f"faults axis names undefined plan {plan_name!r} "
                    f"(defined: {', '.join(sorted(self.fault_plans)) or '-'})"
                )
        # Validate the base scenario dict eagerly: a bad field should fail
        # at spec load, not run 900 of 1000 runs and then die.
        try:
            scenario_from_dict(dict(self.scenario))
        except (ValueError, TypeError) as exc:
            raise SpecError(f"invalid [scenario] section: {exc}") from exc
        self._build_each_scheme()

    def _swept_schemes(self) -> Tuple[str, ...]:
        """Every scheme this campaign can run (grid axis, else base, else
        the paper default)."""
        swept = self.grid.get("scheme")
        if swept:
            return tuple(swept)
        return (self.scenario.get("scheme", "flooding"),)

    def _validate_scheme_params(self) -> None:
        """Check dotted ``scheme_params.<key>`` axes and base-scenario
        ``scheme_params`` keys against each swept scheme's parameter
        schema -- a typo'd key must fail at load time, not silently run
        the whole campaign on defaults."""
        axis_params = {
            axis[len("scheme_params."):]: values
            for axis, values in self.grid.items()
            if axis.startswith("scheme_params.")
        }
        base_params = self.scenario.get("scheme_params", {})
        if not axis_params and not base_params:
            return
        for scheme in self._swept_schemes():
            spec = SCHEME_REGISTRY[scheme]
            for key in list(axis_params) + list(base_params):
                if key not in spec.param_names:
                    raise SpecError(
                        f"scheme_params.{key} is not a parameter of swept "
                        f"scheme {scheme!r} (accepted: "
                        f"{spec.accepted_parameters()})"
                    )
            for key, values in axis_params.items():
                param = spec.param(key)
                for value in values:
                    error = param.validate(value)
                    if error is not None:
                        raise SpecError(
                            f"scheme_params.{key} for scheme {scheme!r}: "
                            f"{error}"
                        )

    def _build_each_scheme(self) -> None:
        """Build each swept scheme once from every ``scheme_params``
        combination the grid produces: the constructor checks values
        together (``n1 < n2``, a well-formed ``sequence``) that
        :meth:`_validate_scheme_params` checks one at a time."""
        axes = sorted(a for a in self.grid if a.startswith("scheme_params."))
        base_params = dict(self.scenario.get("scheme_params", {}))
        for combo in itertools.product(*(self.grid[a] for a in axes)):
            params = dict(base_params)
            for axis, value in zip(axes, combo):
                params[axis[len("scheme_params."):]] = value
            for scheme in self._swept_schemes():
                try:
                    make_scheme(scheme, **params)
                except ValueError as exc:
                    combination = ", ".join(
                        f"{key}={value!r}"
                        for key, value in sorted(params.items())
                    )
                    raise SpecError(
                        f"scheme {scheme!r} cannot be built from "
                        f"scheme_params {combination}: {exc}"
                    ) from exc

    # ---------------------------------------------------------- identity

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (inverse of :func:`spec_from_dict`)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "grid": {axis: list(vals) for axis, vals in self.grid.items()},
        }
        if self.scenario:
            out["scenario"] = dict(self.scenario)
        if self.fault_plans:
            out["faults"] = {
                name: plan.to_dict()
                for name, plan in self.fault_plans.items()
            }
        return out

    def digest(self) -> str:
        """SHA-256 of the canonical spec (campaign identity)."""
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def total_runs(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n


def spec_from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a parsed TOML/JSON document."""
    if not isinstance(data, Mapping):
        raise SpecError(f"spec must be a table/object, got {type(data).__name__}")
    unknown = set(data) - {"name", "grid", "scenario", "faults"}
    if unknown:
        raise SpecError(
            f"unknown top-level spec key(s): {', '.join(sorted(unknown))}"
        )
    name = data.get("name")
    if not isinstance(name, str):
        raise SpecError("spec needs a string 'name'")
    grid_raw = data.get("grid", {})
    if not isinstance(grid_raw, Mapping):
        raise SpecError("[grid] must be a table of axis = [values]")
    grid: Dict[str, Tuple[Any, ...]] = {}
    for axis, values in grid_raw.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise SpecError(
                f"grid axis {axis!r} must be a list of values, got {values!r}"
            )
        grid[str(axis)] = tuple(values)
    scenario = data.get("scenario", {})
    if not isinstance(scenario, Mapping):
        raise SpecError("[scenario] must be a table")
    plans_raw = data.get("faults", {})
    if not isinstance(plans_raw, Mapping):
        raise SpecError("[faults] must be a table of named plans")
    fault_plans: Dict[str, FaultPlan] = {}
    for plan_name, body in plans_raw.items():
        if plan_name == NO_FAULTS:
            raise SpecError(f"fault plan name {NO_FAULTS!r} is reserved")
        try:
            if isinstance(body, Mapping) and set(body) == {"spec"}:
                # [faults.x] spec = "churn:..." -- the CLI string form.
                fault_plans[str(plan_name)] = FaultPlan.parse(body["spec"])
            elif isinstance(body, Mapping):
                fault_plans[str(plan_name)] = FaultPlan.from_dict(dict(body))
            elif isinstance(body, str):
                fault_plans[str(plan_name)] = FaultPlan.parse(body)
            else:
                raise ValueError(f"expected a plan table or spec string")
        except (ValueError, TypeError, KeyError) as exc:
            raise SpecError(f"invalid fault plan {plan_name!r}: {exc}") from exc
    return CampaignSpec(
        name=name,
        grid=grid,
        scenario=dict(scenario),
        fault_plans=fault_plans,
    )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a spec file; format by extension (``.toml`` / ``.json``).

    TOML needs the stdlib ``tomllib`` (Python >= 3.11); on older
    interpreters write the spec as JSON -- the schemas are identical.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise SpecError(
                "TOML specs need Python >= 3.11 (stdlib tomllib); "
                "use a .json spec on this interpreter"
            ) from exc
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return spec_from_dict(data)
