"""Every field of a trial record against the networkx rebuild of its
measure in ``record_oracle``, on small random campaigns of every kind."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower.experiments import KINDS, ExperimentConfig, run_single_trial

from record_oracle import oracle_trial


def same_record(cfg, trial):
    """The trial's (values, exact) as JSON, from the package and the
    oracle, so that field order and True against 1 count too."""
    rec = run_single_trial(cfg, trial)
    got = json.dumps([list(rec.values.items()), list(rec.exact.items())])
    want = json.dumps([list(part.items()) for part in oracle_trial(cfg, trial)])
    assert got == want
    return rec.values


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "dense-chi":
        n = draw(st.integers(8, 30))
        d = draw(st.floats(math.log(n) + 0.1, n - 1.0))
        r = draw(st.integers(1, 2))
    else:
        n = draw(st.integers(20 if kind == "delta-concentration" else 1, 60))
        d = draw(st.floats(0.3, min(3.0, n)))
        r = {"chi2-equality": st.just(2), "chi-sandwich": st.integers(2, 4),
             "delta-concentration": st.integers(1, 2),
             "clique-sandwich": st.integers(1, 3)}.get(kind, st.integers(1, 3))
        r = draw(r)
    return ExperimentConfig(kind=kind, n=n, d=d, r=r,
                            seed=draw(st.integers(0, 2 ** 32)),
                            measure_z=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(configs(), st.integers(0, 1000))
def test_records_equal_the_networkx_rebuild(cfg, trial):
    same_record(cfg, trial)


def test_both_two_phase_outcomes_are_covered():
    """At d = 1 the forest check passes in some trials and fails in others;
    every record, its certificate and Z included, matches either way."""
    outcomes = set()
    for kind, r in (("chi2-equality", 2), ("chi-sandwich", 3)):
        cfg = ExperimentConfig(kind=kind, n=60, d=1.0, r=r, seed=5,
                               measure_z=True)
        for trial in range(12):
            values = same_record(cfg, trial)
            outcomes.add((kind, values["two_phase_ok"]))
            assert values["z_proximity"] >= 0
    assert outcomes == {(kind, ok) for kind in ("chi2-equality", "chi-sandwich")
                        for ok in (True, False)}
