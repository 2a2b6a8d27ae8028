"""The scheme plugin registry: specs, schemas, and make_scheme validation."""

import pytest

from repro.schemes import (
    SCHEME_REGISTRY,
    CounterScheme,
    ParamSpec,
    SchemeSpec,
    get_spec,
    make_scheme,
    register_scheme,
)

# ------------------------------------------------------- registry health


def test_registry_names_match_specs_and_classes():
    for name, spec in SCHEME_REGISTRY.items():
        assert spec.name == name
        assert spec.factory.name == name


def test_registry_descriptions_and_describes_unique():
    descriptions = [spec.description for spec in SCHEME_REGISTRY.values()]
    assert len(set(descriptions)) == len(descriptions)
    describes = [spec.build().describe() for spec in SCHEME_REGISTRY.values()]
    assert len(set(describes)) == len(describes)


def test_registry_capability_flags_consistent():
    for spec in SCHEME_REGISTRY.values():
        assert spec.needs_hello == spec.factory.needs_hello
        # Two-hop piggybacking is pointless without HELLOs at all.
        if spec.needs_two_hop_hello:
            assert spec.needs_hello


def test_registry_defaults_satisfy_own_schema():
    for spec in SCHEME_REGISTRY.values():
        assert spec.validate_params(spec.default_params()) == []
        scheme = spec.build()  # bare defaults always construct
        assert scheme.name == spec.name


# ---------------------------------------------------- make_scheme errors


def test_make_scheme_unknown_kwarg_lists_accepted_params():
    # The satellite bug: a typo'd kwarg used to escape as a bare TypeError.
    with pytest.raises(ValueError) as exc:
        make_scheme("counter", treshold=4)
    message = str(exc.value)
    assert "counter" in message
    assert "treshold" in message
    assert "threshold: int = 3" in message  # the accepted-parameter list


def test_make_scheme_no_params_scheme_reports_none_accepted():
    with pytest.raises(ValueError, match=r"\(none\)"):
        make_scheme("flooding", p=0.5)


def test_make_scheme_bad_type():
    with pytest.raises(ValueError, match="must be an int"):
        make_scheme("counter", threshold=2.5)
    with pytest.raises(ValueError, match="must be a number"):
        make_scheme("gossip", p=True)


def test_make_scheme_out_of_range():
    with pytest.raises(ValueError, match=">= 2"):
        make_scheme("counter", threshold=1)
    with pytest.raises(ValueError, match="<= 1"):
        make_scheme("gossip", p=1.5)
    with pytest.raises(ValueError, match="one of"):
        make_scheme("adaptive-counter", shape="zigzag")


def test_make_scheme_good_params_still_work():
    assert make_scheme("counter", threshold=5).threshold == 5
    assert make_scheme("gossip", p=0.3).p == 0.3
    assert make_scheme("counter-gossip", threshold=6, p=0.5).p == 0.5
    assert make_scheme("self-pruning", oracle=True).oracle
    fn = make_scheme("adaptive-counter", n1=3, n2=8).threshold_fn
    assert fn(1) == 2 and fn(3) == 4 and fn(20) == 2


def test_make_scheme_sequence_param_accepted():
    fn = make_scheme("adaptive-counter", sequence="2-2-3").threshold_fn
    assert [fn(n) for n in range(5)] == [2, 2, 2, 3, 3]
    with pytest.raises(ValueError, match="must be a string"):
        make_scheme("adaptive-counter", sequence=42)


def test_adaptive_curve_knobs_exclusive_with_sequence():
    with pytest.raises(ValueError, match="not both"):
        make_scheme("adaptive-counter", sequence="2-3", n1=3)
    with pytest.raises(ValueError, match="not both"):
        make_scheme("adaptive-counter", sequence="2-3", shape="convex")


def test_threshold_functions_are_not_parameters():
    for name in ("adaptive-counter", "adaptive-location"):
        with pytest.raises(ValueError, match="unknown parameter 'threshold_fn'"):
            make_scheme(name, threshold_fn=lambda n: 2)


def test_get_spec():
    assert get_spec("counter").factory is CounterScheme
    with pytest.raises(ValueError, match="unknown scheme"):
        get_spec("telepathy")


# ------------------------------------------------------ spec plumbing


def test_with_factory_keeps_schema():
    calls = []

    def fake_factory(threshold=3):
        calls.append(threshold)
        return CounterScheme(threshold=threshold)

    spec = SCHEME_REGISTRY["counter"].with_factory(fake_factory)
    spec.build(threshold=7)
    assert calls == [7]
    with pytest.raises(ValueError, match="accepted"):
        spec.build(nope=1)


def test_with_factory_signature_drift_still_valueerror():
    spec = SCHEME_REGISTRY["counter"].with_factory(lambda: CounterScheme())
    with pytest.raises(ValueError, match="counter"):
        spec.build(threshold=4)  # schema-valid, factory disagrees


def test_register_scheme_rejects_duplicate_names():
    sandbox = {}

    @register_scheme(registry=sandbox, description="x")
    class One(CounterScheme):
        name = "dup"

    with pytest.raises(ValueError, match="already registered"):
        @register_scheme(registry=sandbox, description="y")
        class Two(CounterScheme):
            name = "dup"

    assert sandbox["dup"].factory is One


def test_paramspec_rejects_bad_schema():
    with pytest.raises(ValueError, match="unknown kind"):
        ParamSpec("x", "complex")
    with pytest.raises(ValueError, match="unknown kind"):
        ParamSpec("f", "callable")
    with pytest.raises(ValueError, match="default violates"):
        ParamSpec("x", "int", 1, minimum=2)
    with pytest.raises(ValueError, match="duplicate parameter"):
        SchemeSpec("dup-params", CounterScheme,
                   params=(ParamSpec("a", "int"), ParamSpec("a", "int")))


def test_paramspec_coerce():
    p_int = ParamSpec("n", "int")
    p_float = ParamSpec("p", "float")
    p_bool = ParamSpec("b", "bool")
    p_str = ParamSpec("s", "str")
    assert p_int.coerce("12") == 12
    assert p_float.coerce("0.7") == 0.7
    assert p_bool.coerce("true") is True and p_bool.coerce("0") is False
    assert p_str.coerce("linear") == "linear"
    with pytest.raises(ValueError):
        p_bool.coerce("maybe")
