"""Seeded op streams: same seed, same ops; another seed, other ops."""
import itertools

import pytest

import workloads


def _descs(workload, seed, workdir, rounds=2):
    workdir.mkdir(exist_ok=True)
    stream = workloads.rounds(workload, seed, str(workdir))
    return [op.desc for ops in itertools.islice(stream, rounds) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_ops_twice(workload, tmp_path):
    first = _descs(workload, 7, tmp_path / "a")
    assert first == _descs(workload, 7, tmp_path / "b")
    warm = [op.desc for op in workloads.warmup_ops(workload, 7, str(tmp_path))]
    assert warm == [op.desc for op in workloads.warmup_ops(workload, 7, str(tmp_path))]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_different_ops(workload, tmp_path):
    assert _descs(workload, 7, tmp_path) != _descs(workload, 8, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_holds_the_mix(workload, tmp_path):
    mix = workloads.MIXES[workload]
    for ops in itertools.islice(workloads.rounds(workload, 1, str(tmp_path)), 3):
        kinds = [op.kind for op in ops]
        assert {kind: kinds.count(kind) for kind in mix} == mix
    assert sorted(op.kind for op in workloads.warmup_ops(workload, 1, str(tmp_path))) == sorted(mix)


def test_inputs_do_not_repeat(tmp_path):
    descs = _descs("protocols", 3, tmp_path, rounds=4)
    fresh = [d for d in descs if d[0] != "tpes_via_joining"]
    assert len(set(fresh)) == len(fresh)
