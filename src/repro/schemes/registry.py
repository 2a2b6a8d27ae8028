"""Scheme plugin registry: declarative specs + a ``register_scheme`` decorator.

Every broadcast scheme registers itself as a :class:`SchemeSpec` -- its
registry name, constructor parameter schema (:class:`ParamSpec` per
keyword: type, default, valid range), capability flags read off the scheme
class (``needs_hello`` / ``needs_two_hop_hello`` / ``needs_position``), and
a short provenance note.  The spec is the single source of truth every
consumer reads:

- :func:`make_scheme` builds instances through :meth:`SchemeSpec.build`,
  which turns unknown/ill-typed keyword arguments into loud ``ValueError``\\ s
  listing the accepted parameters (instead of a bare ``TypeError`` from the
  constructor).
- The CLI derives ``--scheme`` choices, ``--scheme-param`` coercion and the
  ``schemes`` listing from the registry.
- Campaign specs validate swept ``scheme_params.<key>`` axes against each
  swept scheme's schema at load time.

Adding a scheme is one decorated class::

    @register_scheme(
        params=(ParamSpec("p", "float", 0.7, minimum=0.0, maximum=1.0),),
        description="gossip: rebroadcast with probability p",
        origin="literature",
    )
    class GossipScheme(DeferredRebroadcastScheme):
        name = "gossip"
        ...

Importing :mod:`repro.schemes` triggers every built-in registration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ParamSpec",
    "SchemeSpec",
    "SCHEME_REGISTRY",
    "register_scheme",
    "get_spec",
    "make_scheme",
]

#: Parameter kinds a schema may declare.  Every kind has a scalar JSON
#: form, so any parameter can be swept from a campaign spec, set with
#: ``--scheme-param`` and folded into a result-cache digest.
PARAM_KINDS = ("int", "float", "bool", "str")


@dataclass(frozen=True)
class ParamSpec:
    """Schema for one constructor keyword of a scheme.

    ``default`` is the value the constructor uses when the keyword is
    omitted (``None`` marks an optional parameter resolved inside the
    constructor).  ``minimum`` / ``maximum`` bound numeric kinds
    inclusively; ``choices`` restricts string kinds.
    """

    name: str
    kind: str
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"parameter {self.name!r}: unknown kind {self.kind!r} "
                f"(use one of {', '.join(PARAM_KINDS)})"
            )
        if self.default is not None:
            error = self.validate(self.default)
            if error is not None:
                raise ValueError(
                    f"parameter {self.name!r}: default violates its own "
                    f"schema: {error}"
                )

    def describe(self) -> str:
        """``name: kind = default [range]`` -- for listings and errors."""
        out = f"{self.name}: {self.kind}"
        if self.default is not None:
            out += f" = {self.default!r}"
        if self.choices is not None:
            out += f" in {{{', '.join(self.choices)}}}"
        elif self.minimum is not None or self.maximum is not None:
            lo = "-inf" if self.minimum is None else f"{self.minimum:g}"
            hi = "inf" if self.maximum is None else f"{self.maximum:g}"
            out += f" in [{lo}, {hi}]"
        return out

    def validate(self, value: Any) -> Optional[str]:
        """Return an error string for a bad ``value``, or ``None`` if OK."""
        if value is None:
            # Optional parameters (default None) may be passed explicitly
            # as None; required-value parameters may not.
            if self.default is None:
                return None
            return f"{self.name} must not be None"
        if self.kind == "bool":
            if not isinstance(value, bool):
                return f"{self.name} must be a bool, got {value!r}"
            return None
        if self.kind == "str":
            if not isinstance(value, str):
                return f"{self.name} must be a string, got {value!r}"
            if self.choices is not None and value not in self.choices:
                return (
                    f"{self.name} must be one of "
                    f"{{{', '.join(self.choices)}}}, got {value!r}"
                )
            return None
        # Numeric kinds.  bool is an int subclass; reject it explicitly.
        if isinstance(value, bool):
            return f"{self.name} must be a number, got {value!r}"
        if self.kind == "int" and not isinstance(value, int):
            return f"{self.name} must be an int, got {value!r}"
        if self.kind == "float" and not isinstance(value, (int, float)):
            return f"{self.name} must be a number, got {value!r}"
        if self.minimum is not None and value < self.minimum:
            return f"{self.name} must be >= {self.minimum:g}, got {value!r}"
        if self.maximum is not None and value > self.maximum:
            return f"{self.name} must be <= {self.maximum:g}, got {value!r}"
        return None

    def coerce(self, text: str) -> Any:
        """Parse a command-line string into this parameter's kind.

        Used by ``--scheme-param KEY=VALUE``; raises ``ValueError`` on an
        unparseable value (range checks happen later in :meth:`validate`).
        """
        if self.kind == "int":
            return int(text)
        if self.kind == "float":
            return float(text)
        if self.kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"cannot parse {text!r} as a bool")
        return text


@dataclass(frozen=True)
class SchemeSpec:
    """One registry entry: everything a consumer needs to know about a scheme.

    The capability flags are properties reading the scheme class's own
    attributes, so a spec can never disagree with the class it wraps.
    """

    name: str
    factory: Callable[..., Any]
    params: Tuple[ParamSpec, ...] = ()
    description: str = ""
    origin: str = ""

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(
                f"scheme {self.name!r}: duplicate parameter names in schema"
            )

    # ------------------------------------------------------- capabilities

    @property
    def needs_hello(self) -> bool:
        return bool(getattr(self.factory, "needs_hello", False))

    @property
    def needs_two_hop_hello(self) -> bool:
        return bool(getattr(self.factory, "needs_two_hop_hello", False))

    @property
    def needs_position(self) -> bool:
        return bool(getattr(self.factory, "needs_position", False))

    # ------------------------------------------------------------ schema

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParamSpec:
        """The :class:`ParamSpec` for ``name`` (``KeyError`` if unknown)."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def accepted_parameters(self) -> str:
        """Human-readable parameter list for error messages."""
        if not self.params:
            return "(none)"
        return ", ".join(p.describe() for p in self.params)

    def validate_params(self, params: Mapping[str, Any]) -> List[str]:
        """Schema-check a parameter mapping; returns a list of error strings
        (empty when everything is acceptable).  Unknown keys are reported
        alongside the accepted-parameter list."""
        errors: List[str] = []
        known = set(self.param_names)
        for key in sorted(set(params) - known):
            errors.append(
                f"unknown parameter {key!r} (accepted: "
                f"{self.accepted_parameters()})"
            )
        for key, value in params.items():
            if key not in known:
                continue
            error = self.param(key).validate(value)
            if error is not None:
                errors.append(error)
        return errors

    # ----------------------------------------------------------- factory

    def build(self, **params: Any) -> Any:
        """Instantiate the scheme, schema-validating ``params`` first.

        Bad or unknown keyword arguments raise ``ValueError`` naming the
        scheme's accepted parameters, matching ``make_scheme``'s
        loud-and-early bad-name behavior.
        """
        errors = self.validate_params(params)
        if errors:
            raise ValueError(
                f"scheme {self.name!r}: " + "; ".join(errors)
            )
        try:
            return self.factory(**params)
        except TypeError as exc:
            # A factory override (with_factory) whose signature drifted from
            # the declared schema: still surface it as a ValueError.
            raise ValueError(
                f"scheme {self.name!r}: {exc} (accepted parameters: "
                f"{self.accepted_parameters()})"
            ) from exc

    def with_factory(self, factory: Callable[..., Any]) -> "SchemeSpec":
        """A copy of this spec with a replacement factory (ablation hook)."""
        return replace(self, factory=factory)

    def default_params(self) -> Dict[str, Any]:
        """The defaults a bare ``make_scheme(name)`` call resolves to."""
        return {
            p.name: p.default for p in self.params if p.default is not None
        }


#: The global name -> spec registry, populated by :func:`register_scheme`
#: at import time of :mod:`repro.schemes`.
SCHEME_REGISTRY: Dict[str, "SchemeSpec"] = {}


def register_scheme(
    *,
    name: Optional[str] = None,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    origin: str = "",
    registry: Optional[Dict[str, SchemeSpec]] = None,
) -> Callable[[type], type]:
    """Class decorator registering a scheme class as a :class:`SchemeSpec`.

    ``name`` defaults to the class's own ``name`` attribute.  Registering a
    name twice is an error (two plugins silently shadowing each other is
    exactly the failure mode a registry exists to prevent).
    """
    target = SCHEME_REGISTRY if registry is None else registry

    def decorator(cls: type) -> type:
        spec = SchemeSpec(
            name=name or cls.name,
            factory=cls,
            params=tuple(params),
            description=description,
            origin=origin,
        )
        if spec.name in target:
            raise ValueError(
                f"scheme name {spec.name!r} is already registered "
                f"(by {target[spec.name].factory!r})"
            )
        target[spec.name] = spec
        return cls

    return decorator


def get_spec(name: str) -> SchemeSpec:
    """The :class:`SchemeSpec` for ``name``; ``ValueError`` listing known
    names on a miss (same contract as :func:`make_scheme`)."""
    spec = SCHEME_REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(SCHEME_REGISTRY))
        raise ValueError(f"unknown scheme {name!r}; known schemes: {known}")
    return spec


def make_scheme(name: str, **params: Any) -> Any:
    """Instantiate a scheme from its registry name.

    Raises ``ValueError`` with the list of known names on a bad name and
    ``ValueError`` listing the scheme's accepted parameters on bad keyword
    arguments, so a typo in an experiment config fails loudly and early.
    """
    return get_spec(name).build(**params)
