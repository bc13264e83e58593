import random

import pytest

from qpusim import (
    KeySampler,
    WorkloadSpec,
    gen_phases,
    gen_workload,
    parse,
)

from conftest import student_schema

SCHEMA = student_schema()
DCS = ["dc1", "dc2", "dc3"]


def test_zero_actions_is_an_empty_workload():
    assert gen_workload(SCHEMA, DCS, WorkloadSpec(actions=0), seed=1) == []


def test_same_seed_same_workload():
    spec = WorkloadSpec(objects=50, actions=400, query_frac=0.3)
    a = gen_workload(SCHEMA, DCS, spec, seed=9)
    b = gen_workload(SCHEMA, DCS, spec, seed=9)
    assert a == b
    c = gen_workload(SCHEMA, DCS, spec, seed=10)
    assert a != c


def test_action_shape_and_tick_line():
    spec = WorkloadSpec(objects=20, actions=200, query_frac=0.25,
                        delete_frac=0.1, gap=3)
    acts = gen_workload(SCHEMA, DCS, spec, seed=2)
    assert len(acts) == 200
    last = 1  # the tick line opens at 1 and steps by the gap
    for a in acts:
        assert a["op"] in ("put", "delete", "query")
        assert a["dc"] in DCS
        assert a["t"] == last + 3
        last = a["t"]
        if a["op"] == "put":
            assert set(a["attrs"]) == set(SCHEMA)
            assert 0.0 <= a["attrs"]["gpa"] <= 4.0


def test_deletes_only_target_written_keys():
    spec = WorkloadSpec(objects=30, actions=500, delete_frac=0.3,
                        query_frac=0.0)
    acts = gen_workload(SCHEMA, DCS, spec, seed=3)
    written = set()
    deletes = 0
    for a in acts:
        if a["op"] == "put":
            written.add(a["key"])
        else:
            deletes += 1
            assert a["key"] in written
    assert deletes > 10


def test_generated_query_text_parses_with_requested_levels():
    spec = WorkloadSpec(objects=20, actions=600, query_frac=0.5,
                        staleness_mix=(("strong", 0.5), ("bounded:7", 0.5)))
    acts = gen_workload(SCHEMA, DCS, spec, seed=4)
    seen = set()
    for a in acts:
        if a["op"] != "query":
            continue
        q = parse(a["text"], SCHEMA)
        seen.add(q.staleness.render())
    assert seen == {"strong", "bounded:7"}


def test_zipf_rank_one_mass():
    rng = random.Random(5)
    sampler = KeySampler(1000, "zipf", 1.0, rng)
    draws = 100_000
    top = sum(1 for _ in range(draws) if sampler.draw() == 0)
    h = sum(1 / r for r in range(1, 1001))
    expect = 1 / h
    assert abs(top / draws - expect) < 0.05 * expect + 0.002


def test_uniform_sampler_covers_all_ranks():
    rng = random.Random(6)
    sampler = KeySampler(10, "uniform", 0.0, rng)
    assert {sampler.draw() for _ in range(500)} == set(range(10))


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(objects=0)
    with pytest.raises(ValueError):
        WorkloadSpec(actions=-1)
    with pytest.raises(ValueError):
        WorkloadSpec(query_frac=0.7, delete_frac=0.5)
    with pytest.raises(ValueError):
        WorkloadSpec(gap=0)


def test_phases_confine_writes_to_value_ranges():
    lo_phase = WorkloadSpec(objects=40, actions=300, query_frac=0.0,
                            delete_frac=0.0, value_ranges={"gpa": (0.0, 1.0)})
    hi_phase = WorkloadSpec(objects=40, actions=300, query_frac=0.0,
                            delete_frac=0.0, value_ranges={"gpa": (3.0, 4.0)})
    acts = gen_phases(SCHEMA, DCS, [lo_phase, hi_phase], seed=8)
    assert len(acts) == 600
    assert all(a["attrs"]["gpa"] <= 1.0 for a in acts[:300])
    assert all(a["attrs"]["gpa"] >= 3.0 for a in acts[300:])
    # the tick line continues across the phase boundary
    ticks = [a["t"] for a in acts]
    assert ticks == sorted(ticks) and len(set(ticks)) == 600


def test_single_phase_equals_gen_workload():
    spec = WorkloadSpec(objects=25, actions=150, query_frac=0.2)
    assert gen_phases(SCHEMA, DCS, [spec], seed=11) == gen_workload(
        SCHEMA, DCS, spec, seed=11)
