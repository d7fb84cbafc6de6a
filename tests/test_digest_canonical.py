"""Byte identity of the digest canonicaliser.

Campaign fingerprints, ledger content digests and the service cache keys
derived from them are persisted (checkpoint files, ledger entries), so the
canonical JSON view they hash must never change.  The fast
:func:`repro.obs.ledger.canonicalizer` is checked against verbatim copies
of the original recursive implementations, and the digests of the four
case-study payloads are pinned as literals.
"""

import json
from collections import OrderedDict
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.ledger import _canonical as ledger_canonical
from repro.obs.ledger import model_digest
from repro.safety.resilience import _canonical as fingerprint_canonical
from repro.safety.resilience import campaign_fingerprint


# -- the original implementations, kept verbatim ----------------------------


def _old_fingerprint_canonical(value: object) -> object:
    """JSON-stable view of fingerprint inputs (sorted, primitive types)."""
    if isinstance(value, Mapping):
        return {str(k): _old_fingerprint_canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_old_fingerprint_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _old_ledger_canonical(value: object) -> object:
    """JSON-stable view of digest inputs (sorted keys, primitive types)."""
    if isinstance(value, Mapping):
        return {
            str(k): _old_ledger_canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_old_ledger_canonical(v) for v in value]
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


# -- generated inputs ---------------------------------------------------------


class _Frozen(Mapping):
    """A read-only Mapping that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class _Opaque:
    """Not JSON: canonicalised through its repr."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"_Opaque({self.tag!r})"


_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(max_size=6),
    _floats.map(np.float64),
    st.integers(0, 9).map(_Opaque),
)
_keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        st.dictionaries(_keys, children, max_size=5).map(_Frozen),
        st.dictionaries(_keys, children, max_size=5).map(OrderedDict),
    )


_values = st.recursive(_leaves, _containers, max_leaves=30)


def _dumps(view):
    return json.dumps(view, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(_values)
def test_fingerprint_view_is_byte_identical(value):
    assert _dumps(fingerprint_canonical(value)) == _dumps(
        _old_fingerprint_canonical(value)
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_values)
def test_ledger_view_is_byte_identical(value):
    assert _dumps(ledger_canonical(value)) == _dumps(
        _old_ledger_canonical(value)
    )


def test_colliding_keys_keep_the_last_value():
    value = {1: "int", "1": "str", "a": {True: 1, "True": 2}}
    for new, old in (
        (fingerprint_canonical, _old_fingerprint_canonical),
        (ledger_canonical, _old_ledger_canonical),
    ):
        assert _dumps(new(value)) == _dumps(old(value))
        assert new(value)["1"] == "str"


# -- pinned digests of the case-study payloads ------------------------------


def _build(case):
    """The case's model and reliability, as the benchmark submits them."""
    from repro import casestudies as cs

    if case == "power_supply":
        return cs.build_power_supply_simulink(), cs.power_supply_reliability()
    if case == "system_a":
        model = cs.build_system_a_simulink()
    elif case == "system_b":
        model = cs.build_system_b_simulink()
    else:
        model = cs.build_power_grid_simulink(
            feeders=4, sections_per_feeder=150
        )
    return model, cs.power_network_reliability()


#: (request fingerprint == ledger fingerprint, ledger model digest), as
#: computed by the original implementation.
PINNED = {
    "power_supply": (
        "00c839c54d64d7bf87bb298ccd57214ac8e81bb35cacec91bfd4058b0564741d",
        "9afb5e22af8ac5eeb1d3a3544903676aad47227bed5f4aafefae30c7dbd3baaf",
    ),
    "system_a": (
        "465f713ca817d27a3fa0bf0226995aaf8fe4cc3f5335caadb7752184cf21a20a",
        "03b75d775b6e92a63f434354949859f6a0e8915798618392d4737b11f002cc30",
    ),
    "system_b": (
        "9d7a333661df8c1486262998fd58e32c5fee974ecf11a2d26854598ab7d90d03",
        "3803e47990300bb3d527ec2d82bb607f76a858672da0cce3ae55cc6f4bbf5e8e",
    ),
    "grid_4x150": (
        "d6d34384281b33619e66f1374a14400ce523f41fa807063bad7f7f1063f49b58",
        "303568cf34e13473be694de53dd5269e497cae12f93a228a480ef03889fb148a",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_case_digests_are_pinned(case):
    from repro.service import AnalysisRequest, reliability_payload
    from repro.simulink import SimulinkModel

    fingerprint, digest = PINNED[case]
    model, reliability = _build(case)
    request = AnalysisRequest.from_payload({
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
    })
    assert request.fingerprint() == fingerprint
    # What the ledger records for a computed job: the decoded payload.
    decoded = SimulinkModel.from_dict(dict(request.model))
    assert model_digest(decoded) == digest
    assert campaign_fingerprint(
        decoded, reliability, "dc", 5e-3, 5e-5, None
    ) == fingerprint
