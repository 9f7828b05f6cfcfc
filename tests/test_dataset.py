import csv
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import RECIPE_KEYS, write_parent_layout
from qnpflow.dataset import (
    Samples,
    Scaler,
    fit_scaler,
    generate,
    read_dataset_csv,
    read_meta_json,
    split,
    write_dataset_csv,
    write_meta_json,
)
from qnpflow import dataset
from qnpflow.cli import _train_set
from qnpflow.errors import (
    NotConverged,
    ParseError,
    ShapeMismatch,
    SingularJacobian,
    TooFewConverged,
    ValidationError,
)
from qnpflow.grid import NetworkModel
from qnpflow.powerflow import SolveOptions, solve

# ---------------------------------------------------------------------------
# generation


def assert_same_samples(a, b):
    assert np.array_equal(a.sample_id, b.sample_id)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets, equal_nan=True)
    assert np.array_equal(a.converged, b.converged)


@pytest.mark.parametrize("seed, opts", [
    (3, {}),
    (3, {"coupled": True}),
    (3, {"perturb_all_loads": True}),
    (3, {"coupled": True, "perturb_all_loads": True}),
    (2**130 + 3, {}),
], ids=["default", "coupled", "perturb_all_loads", "both", "multi-word-seed"])
def test_generation_is_deterministic_and_prefix_stable(base_net, seed, opts):
    short, _ = generate(base_net, 50, seed=seed, **opts)
    long, _ = generate(base_net, 200, seed=seed, **opts)
    assert len(short) == 50 and len(long) == 200
    assert_same_samples(short, long[:50])


def base_loads(net):
    """The network's P and Q loads, in MW and Mvar, one entry per bus."""
    return np.array([b.p_load for b in net.buses]), np.array([b.q_load for b in net.buses])


def per_sample_reference(net, n, mult_range, seed, coupled=False, perturb_all_loads=False):
    """The per-sample path that the batched generate replaced: a NetworkModel
    per sample, then solve(). One `default_rng(seed)` draws the multipliers
    one scalar at a time in row order (P then Q per perturbed bus, one draw
    when coupled). Returns each sample's inputs, targets, converged flag and
    Newton step count (None after a singular Jacobian)."""
    low, high = mult_range
    perturbed = range(net.n) if perturb_all_loads else net.pq_indices
    n_targets = len(net.pq_indices) + len(net.non_slack_indices)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        buses = list(net.buses)
        for i in perturbed:
            if coupled:
                mp = mq = rng.uniform(low, high)
            else:
                mp = rng.uniform(low, high)
                mq = rng.uniform(low, high)
            buses[i] = replace(buses[i], p_load=buses[i].p_load * mp, q_load=buses[i].q_load * mq)
        case = NetworkModel(buses=tuple(buses), ybus=net.ybus, base=net.base)
        inputs = np.concatenate([
            [net.base.to_pu(b.p_load) for b in case.buses],
            [net.base.to_pu(b.q_load) for b in case.buses],
            [case.buses[net.slack_index].v_mag],
            [case.buses[i].v_mag for i in net.pv_indices],
        ])
        targets, converged, steps = np.full(n_targets, np.nan), False, None
        try:
            sol = solve(case)
            targets = np.concatenate([sol.v_mag[net.pq_indices], sol.delta[net.non_slack_indices]])
            converged, steps = True, sol.iterations
        except NotConverged as exc:
            steps = len(exc.history)
        except SingularJacobian:
            pass
        rows.append((inputs, targets, converged, steps))
    return rows


@pytest.mark.parametrize("mult_range, opts", [
    ((0.8, 1.2), {}),
    ((1.0, 5.5), {}),
    ((0.8, 1.2), {"coupled": True}),
    ((0.8, 1.2), {"perturb_all_loads": True}),
], ids=["nominal", "stressed", "coupled", "perturb_all_loads"])
def test_batched_generate_matches_per_sample_solves(base_net, monkeypatch, mult_range, opts):
    batches = []
    original = dataset.solve_batch

    def capture(net, p_sched, q_sched, solver):
        batches.append((solver, original(net, p_sched, q_sched, solver)))
        return batches[-1][1]

    monkeypatch.setattr(dataset, "solve_batch", capture)
    samples, meta = generate(base_net, 500, mult_range=mult_range, seed=5, **opts)
    ((solver, res),) = batches
    assert solver == SolveOptions()
    inputs, targets, converged, steps = zip(
        *per_sample_reference(base_net, 500, mult_range, 5, **opts))
    assert_same_samples(samples, Samples(np.arange(500), np.array(inputs),
                                         np.array(targets), np.array(converged)))
    assert samples.converged.dtype == bool
    for idx, step in enumerate(steps):
        if step is None:
            assert res.singular[idx]
        else:
            assert res.iterations[idx] == step
    if mult_range == (1.0, 5.5):
        # near voltage collapse some cases hit the step cap
        assert 0 < meta.n_requested - meta.n_converged < 0.05 * meta.n_requested


def batched_draws(seed, n, k, low=0.8, high=1.2):
    return np.random.default_rng(seed).uniform(low, high, (n, k))


def scalar_draws(seed, n, k, low, high):
    """One `default_rng(seed)` drawing k multipliers per sample one scalar at
    a time, sample after sample."""
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(low, high) for _ in range(k)] for _ in range(n)])


def assert_loads_are_draws(samples, net, draws, perturbed, per_bus):
    """Each perturbed bus's P and Q load is its base load times the sample's
    draw for it (one shared draw when per_bus is 1), bit for bit."""
    p, q = base_loads(net)
    n = net.n
    for side, base, first in ((0, p, 0), (1, q, per_bus - 1)):
        loads = samples.inputs[:, side * n + perturbed]
        expected = net.base.to_pu(base[perturbed] * draws[:, first::per_bus])
        assert np.array_equal(loads.view(np.uint64), expected.view(np.uint64))


# one- to five-word seeds
DRAW_SEEDS = [0, 1, 4, 12345, 2**31, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**130 + 3]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("opts", [{"coupled": True}, {}, {"perturb_all_loads": True}],
                         ids=["coupled", "default", "all-loads"])
def test_loads_are_one_generators_scalar_draws_in_row_order(base_net, seed, opts):
    perturbed = np.arange(base_net.n) if opts.get("perturb_all_loads") else base_net.pq_indices
    per_bus = 1 if opts.get("coupled") else 2
    for low, high in [(0.8, 1.2), (1.0, 2.5), (1.0, 1.0)]:
        reference = scalar_draws(seed, 300, per_bus * len(perturbed), low, high)
        for n in (1, 300):
            samples, _ = generate(base_net, n, (low, high), seed, **opts)
            assert_loads_are_draws(samples, base_net, reference[:n], perturbed, per_bus)


def test_multipliers_cover_pq_loads_only(base_net):
    samples, _ = generate(base_net, 30, mult_range=(0.8, 1.2), seed=5)
    n = base_net.n
    pq = set(base_net.pq_indices)
    draws = batched_draws(5, 30, 2 * len(pq))
    assert np.all(draws >= 0.8) and np.all(draws <= 1.2)
    assert_loads_are_draws(samples, base_net, draws, base_net.pq_indices, 2)
    inputs = samples.inputs
    for i in range(n):
        if i not in pq:
            assert np.ptp(inputs[:, i]) == 0.0
            assert np.ptp(inputs[:, n + i]) == 0.0
    # the slack and setpoint voltage columns never move either
    for j in range(2 * n, inputs.shape[1]):
        assert np.ptp(inputs[:, j]) == 0.0


def test_coupled_flag_ties_p_and_q(base_net):
    samples, _ = generate(base_net, 10, seed=2, coupled=True)
    pq = base_net.pq_indices
    assert_loads_are_draws(samples, base_net, batched_draws(2, 10, len(pq)), pq, 1)


def test_perturb_all_loads_flag(base_net):
    samples, _ = generate(base_net, 5, seed=4, perturb_all_loads=True)
    draws = batched_draws(4, 5, 2 * base_net.n)
    assert_loads_are_draws(samples, base_net, draws, np.arange(base_net.n), 2)


def test_unsolvable_loading_raises(base_net):
    with pytest.raises(TooFewConverged):
        generate(base_net, 10, mult_range=(30.0, 40.0), seed=0)


def test_generate_validation(base_net):
    with pytest.raises(ValidationError):
        generate(base_net, 0)
    with pytest.raises(ValidationError):
        generate(base_net, 5, mult_range=(1.2, 0.8))
    with pytest.raises(ValidationError):
        generate(base_net, 5, mult_range=(-0.5, 1.0))
    with pytest.raises(ValidationError, match="seed"):
        generate(base_net, 5, seed=-1)
    # no n up to the bound is tried, as it would allocate
    with pytest.raises(ValidationError, match="n must be at most") as info:
        generate(base_net, 2**70)
    most = int(re.search(r"at most (\d+)", str(info.value))[1])
    # the stacked Jacobian derivatives, 2 n^2 complex numbers a sample, fit np.intp at the bound
    assert most * 32 * base_net.n**2 <= np.iinfo(np.intp).max
    with pytest.raises(ValidationError, match=f"at most {most},"):
        generate(base_net, most + 1)


def test_meta_counts(base_net):
    samples, meta = generate(base_net, 12, seed=9)
    assert meta.n_requested == 12
    assert meta.n_converged == samples.converged.sum()
    assert meta.network_fingerprint == base_net.fingerprint
    assert samples.inputs.shape == (12, len(meta.input_labels))
    assert samples.targets.shape == (12, len(meta.target_labels))


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_and_partition(base_net):
    samples, _ = generate(base_net, 10, seed=6)
    train, test = split(samples, 0.75, seed=0)
    assert len(train) == 7 and len(test) == 3
    ids = sorted(np.concatenate([train.sample_id, test.sample_id]).tolist())
    assert ids == list(range(10))
    for part in (train, test):  # every column keeps the rows of its sample ids
        assert_same_samples(part, samples[part.sample_id])


def test_split_two_samples(base_net):
    samples, _ = generate(base_net, 2, seed=1)
    train, test = split(samples, 0.5, seed=1)
    assert len(train) == 1 and len(test) == 1


def test_split_same_seed_same_partition(base_net):
    samples, _ = generate(base_net, 20, seed=7)
    a_train, a_test = split(samples, 0.8, seed=5)
    b_train, b_test = split(samples, 0.8, seed=5)
    assert a_train.sample_id.tolist() == b_train.sample_id.tolist()
    assert a_test.sample_id.tolist() == b_test.sample_id.tolist()


def test_split_rejects_degenerate_ratio():
    with pytest.raises(ValidationError):
        split([], 0.0, seed=0)
    with pytest.raises(ValidationError):
        split([], 1.0, seed=0)


# ---------------------------------------------------------------------------
# scaling


def test_minmax_maps_onto_unit_interval():
    x = np.array([[0.8, 3.0], [1.2, 5.0], [1.0, 4.0]])
    sc = fit_scaler(x, "minmax")
    out = sc.transform(x)
    assert out.min(axis=0) == pytest.approx([0.0, 0.0])
    assert out.max(axis=0) == pytest.approx([1.0, 1.0])
    assert out[2] == pytest.approx([0.5, 0.5])


def test_standard_scaler_moments():
    rng = np.random.default_rng(8)
    x = rng.normal(loc=3.0, scale=2.0, size=(500, 3))
    out = fit_scaler(x, "standard").transform(x)
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert out.std(axis=0) == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def test_constant_columns_pass_through():
    x = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    for kind in ("minmax", "standard"):
        sc = fit_scaler(x, kind)
        assert sc.passthrough.tolist() == [True, False]
        out = sc.transform(x)
        assert np.array_equal(out[:, 0], x[:, 0])
        back = sc.invert(out)
        assert np.allclose(back, x, atol=1e-14)


def test_unknown_scaler_kind():
    with pytest.raises(ValidationError):
        fit_scaler(np.ones((3, 2)), "robust")


@settings(deadline=None)
@given(arrays(np.float64, (6, 3), elements=st.floats(-100.0, 100.0)),
       st.sampled_from(["minmax", "standard"]))
def test_scaler_round_trip(x, kind):
    sc = fit_scaler(x, kind)
    back = sc.invert(sc.transform(x))
    assert np.allclose(back, x, rtol=1e-12, atol=1e-10)


def test_scaler_from_dict_null_and_malformed():
    assert Scaler.from_dict(None) is None
    good = fit_scaler(np.array([[1.0, 5.0], [2.0, 6.0]]), "minmax").to_dict()
    for bad in ("x", [1], {"kind": "minmax"}, {**good, "center": [0.0]},
                {**good, "scale": "ab"}, {**good, "center": [[0.0, 1.0]],
                                          "scale": [[1.0, 1.0]], "passthrough": [[False, False]]}):
        with pytest.raises(ParseError):
            Scaler.from_dict(bad)


@pytest.mark.parametrize("key, bad", [("center", math.nan), ("scale", math.inf)])
def test_scaler_from_dict_rejects_non_finite_numbers(key, bad):
    doc = fit_scaler(np.array([[1.0, 5.0], [2.0, 6.0]]), "minmax").to_dict()
    doc[key][1] = bad
    with pytest.raises(ParseError, match="finite"):
        Scaler.from_dict(doc)


def test_scaler_rejects_other_column_count():
    sc = fit_scaler(np.array([[1.0, 5.0], [2.0, 6.0]]), "minmax")
    for method in (sc.transform, sc.invert):
        with pytest.raises(ShapeMismatch):
            method(np.ones((3, 1)))
        with pytest.raises(ShapeMismatch):
            method(np.ones((3, 3)))


def test_scaler_dict_round_trip():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    sc = fit_scaler(x, "standard")
    clone = Scaler.from_dict(sc.to_dict())
    assert clone.kind == sc.kind
    assert np.array_equal(clone.center, sc.center)
    assert np.array_equal(clone.scale, sc.scale)
    assert np.array_equal(clone.passthrough, sc.passthrough)
    probe = np.array([[3.0, 7.0]])
    assert np.array_equal(clone.transform(probe), sc.transform(probe))


# ---------------------------------------------------------------------------
# train-set assembly: train reads the split files and fits its scalers


def write_prefix(tmp_path, samples, meta, ratio, seed):
    """Split the converged samples and write them under one prefix, as the
    dataset command does."""
    train, test = split(samples[samples.converged], ratio, seed)
    prefix = str(tmp_path / "data")
    write_dataset_csv(train, meta, f"{prefix}_train.csv")
    write_dataset_csv(test, meta, f"{prefix}_test.csv")
    write_meta_json(meta, f"{prefix}_meta.json")
    return prefix, meta, train, test


def test_train_set_sizes_and_train_only_fit(base_net, tmp_path):
    samples, meta = generate(base_net, 40, seed=10)
    prefix, *_ = write_prefix(tmp_path, samples, meta, 0.8, 11)
    data, fs, ts = _train_set(prefix, "minmax", "minmax", with_test=True)
    assert data.x_train.shape[0] == 32 and data.x_test.shape[0] == 8
    assert fs.kind == ts.kind == "minmax"
    # scaled train columns that vary must span exactly [0, 1]; test columns
    # generally spill outside, proving the fit ignored them
    varying = ~fs.passthrough
    assert np.allclose(data.x_train[:, varying].min(axis=0), 0.0)
    assert np.allclose(data.x_train[:, varying].max(axis=0), 1.0)


def test_train_set_has_no_test_leakage(base_net, tmp_path):
    samples, meta = generate(base_net, 30, seed=12)
    prefix, meta, _, test = write_prefix(tmp_path, samples, meta, 0.8, 13)
    _, fs_a, ts_a = _train_set(prefix, "minmax", "minmax", with_test=True)
    # mangle every row on the test side, then refit
    mangled = replace(test, inputs=test.inputs * 100.0, targets=test.targets * 100.0)
    write_dataset_csv(mangled, meta, f"{prefix}_test.csv")
    data, fs_b, ts_b = _train_set(prefix, "minmax", "minmax", with_test=True)
    assert data.x_test[:, ~fs_b.passthrough].max() > 1.0
    assert np.array_equal(fs_a.center, fs_b.center)
    assert np.array_equal(fs_a.scale, fs_b.scale)
    assert np.array_equal(ts_a.center, ts_b.center)
    assert np.array_equal(ts_a.scale, ts_b.scale)


def test_train_set_inverts_targets(base_net, tmp_path):
    samples, meta = generate(base_net, 25, seed=14)
    prefix, _, _, test = write_prefix(tmp_path, samples, meta, 0.8, 15)
    data, _, _ = _train_set(prefix, "minmax", "minmax", with_test=True)
    raw = data.invert_targets(data.y_test)
    assert np.allclose(raw, test.targets, atol=1e-12)


def test_train_set_unscaled_side_and_train_only(base_net, tmp_path):
    samples, meta = generate(base_net, 20, seed=16)
    prefix, _, train, _ = write_prefix(tmp_path, samples, meta, 0.8, 17)
    data, fs, ts = _train_set(prefix, "minmax", "none", with_test=False)
    assert fs is not None and ts is None and data.invert_targets is None
    assert data.x_test is None and data.y_test is None
    assert np.allclose(data.y_train, train.targets, atol=1e-12)
    # a prefix without a test file trains on the train split alone
    Path(f"{prefix}_test.csv").unlink()
    data, _, _ = _train_set(prefix, "minmax", "none", with_test=True)
    assert data.x_test is None and data.y_test is None


# ---------------------------------------------------------------------------
# file round trips


@pytest.mark.parametrize("opts", [
    {}, {"coupled": True}, {"perturb_all_loads": True}, {"coupled": True, "perturb_all_loads": True},
], ids=["default", "coupled", "perturb_all_loads", "coupled_all_loads"])
def test_csv_round_trip(base_net, tmp_path, opts):
    samples, meta = generate(base_net, 15, seed=16, **opts)
    path = tmp_path / "data.csv"
    write_dataset_csv(samples, meta, path)
    # the columns are sample_id, the inputs, the targets and converged, whatever the draws
    assert path.read_bytes().split(b"\r\n")[0].decode().split(",") == [
        "sample_id", *meta.input_labels, *meta.target_labels, "converged"]
    back = read_dataset_csv(path, meta)
    assert len(back) == len(samples)
    assert np.array_equal(back.sample_id, samples.sample_id)
    assert np.array_equal(back.inputs, samples.inputs)
    # angle columns pass through a radians->degrees->radians conversion
    assert np.allclose(back.targets, samples.targets, rtol=1e-13, atol=1e-16)
    angle = np.array([lab.endswith("_deg") for lab in meta.target_labels])
    assert np.array_equal(back.targets[:, ~angle], samples.targets[:, ~angle])
    assert np.array_equal(back.converged, samples.converged)


def test_csv_reader_keeps_float_bits(base_net, tmp_path):
    """Every cell reads back as float(repr(x)), bit for bit: random finite bit
    patterns, -0.0, subnormals, and NaN targets in a failed row."""
    _, meta = generate(base_net, 1, seed=0)  # the labels only
    header, angle = dataset._layout(meta)
    n_rows, width = 400, len(header) - 2
    rng = np.random.default_rng(27)
    values = rng.integers(0, 2**64, size=(n_rows, width), dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 0.5
    values[0, :] = -0.0
    values[1, :] = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
                    *rng.integers(1, 2**52, size=width - 4, dtype=np.uint64).view(np.float64)]
    converged = np.ones(n_rows, dtype=int)
    converged[2] = 0
    values[2, len(meta.input_labels):] = np.nan
    path = tmp_path / "data.csv"
    rows = [",".join([str(i), *map(repr, row), str(flag)])
            for i, (row, flag) in enumerate(zip(values.tolist(), converged.tolist()))]
    path.write_bytes("".join(line + "\r\n" for line in [",".join(header), *rows]).encode())
    back = read_dataset_csv(path, meta)
    expected = np.array([[float(repr(x)) for x in row] for row in values.tolist()])
    expected[:, angle] = np.radians(expected[:, angle])
    read = np.hstack([back.inputs, back.targets])
    assert np.array_equal(read.view(np.int64), expected.view(np.int64))
    assert np.signbit(read[0]).all() and (read[0] == 0).all()
    assert np.isnan(back.targets[2]).all() and not back.converged[2]


def test_csv_header_mismatch_raises(base_net, tmp_path):
    samples, meta = generate(base_net, 3, seed=17)
    path = tmp_path / "data.csv"
    write_dataset_csv(samples, meta, path)
    text = path.read_text().splitlines()
    text[0] = text[0].replace("sample_id", "row_id")
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError):
        read_dataset_csv(path, meta)


def test_split_with_multiplier_columns_fails_the_header_check(base_net, tmp_path):
    # splits written before the multiplier columns were dropped; their meta still reads
    samples, meta = generate(base_net, 20, seed=23)
    prefix, meta, *_ = write_prefix(tmp_path, samples, meta, 0.8, 24)
    write_parent_layout(prefix)
    assert {"mult_labels", *RECIPE_KEYS} <= json.loads(Path(f"{prefix}_meta.json").read_text()).keys()
    assert read_meta_json(f"{prefix}_meta.json") == meta
    for split_name in ("train", "test"):
        with pytest.raises(ParseError, match=rf"data_{split_name}\.csv: header \['sample_id', "
                                             r"'mult_p2', 'mult_q2', 'mult_p3', 'mult_q3', 'p_load_1'"
                                             r".* does not match dataset metadata$"):
            read_dataset_csv(f"{prefix}_{split_name}.csv", meta)


@pytest.mark.parametrize("cell, text, message", [
    (3, "abc", "could not convert string to float: 'abc'"),
    (0, "abc", "invalid literal for int"),
    (-1, "abc", "converged must be 0 or 1, got 'abc'"),
    (0, "1.5", "invalid literal for int"),
    (-1, "1.5", "converged must be 0 or 1, got '1.5'"),
    (-1, "2", "converged must be 0 or 1, got '2'"),
    (0, "1" + "0" * 20, ""),
    (None, "", "row with 0 fields, expected 17"),
], ids=["value", "sample_id", "converged", "fractional-sample_id", "fractional-converged",
        "converged-2", "huge-sample_id", "blank-line"])
def test_csv_non_numeric_cell_raises(base_net, tmp_path, cell, text, message):
    samples, meta = generate(base_net, 3, seed=17)
    path = tmp_path / "data.csv"
    write_dataset_csv(samples, meta, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    if cell is None:  # the whole line
        cells = [text]
    else:
        cells[cell] = text
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"data.csv: line 3: {message}"):
        read_dataset_csv(path, meta)


@pytest.fixture(scope="module")
def stressed_csv(base_net, tmp_path_factory):
    """A dataset CSV with non-converged rows (nan targets) and its meta."""
    samples, meta = generate(base_net, 300, mult_range=(1.0, 5.5), seed=5)
    path = tmp_path_factory.mktemp("stressed") / "data.csv"
    write_dataset_csv(samples, meta, path)
    return path, meta, samples


def test_csv_keeps_nan_targets_of_non_converged_rows(stressed_csv):
    path, meta, samples = stressed_csv
    back = read_dataset_csv(path, meta)
    failed = back[~back.converged]
    assert len(failed) and np.array_equal(failed.sample_id, samples.sample_id[~samples.converged])
    assert np.isnan(failed.targets).all()


@pytest.mark.parametrize("converged, column, text", [
    (True, "p_load_2", "nan"), (True, "v_mag_2", "inf"), (False, "q_load_3", "-inf"),
], ids=["converged-input", "converged-target", "failed-input"])
def test_csv_non_finite_cell_raises(stressed_csv, tmp_path, converged, column, text):
    path, meta, _ = stressed_csv
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    row = next(i for i, line in enumerate(lines[1:], start=1)
               if line.endswith(f",{int(converged)}"))
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    spoiled = tmp_path / "data.csv"
    spoiled.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"data.csv: line {row + 1}: non-finite"):
        read_dataset_csv(spoiled, meta)


def test_csv_degree_columns_are_degrees(base_net, tmp_path):
    samples, meta = generate(base_net, 2, seed=18)
    path = tmp_path / "data.csv"
    write_dataset_csv(samples, meta, path)
    header = path.read_text().splitlines()[0].split(",")
    first = path.read_text().splitlines()[1].split(",")
    col = header.index(meta.target_labels[-1])
    n_pq = len(base_net.pq_indices)
    stored = float(first[col])
    assert stored == pytest.approx(np.degrees(samples[0].targets[-1]), rel=1e-12)


def reference_dataset_csv(samples, meta):
    """The CSV text cell by cell: repr of each float, angle targets in degrees."""
    header = ["sample_id", *meta.input_labels, *meta.target_labels, "converged"]
    lines = [",".join(header)]
    for s in samples:
        targets = [math.degrees(v) if lab.startswith("delta_") and lab.endswith("_deg") else v
                   for lab, v in zip(meta.target_labels, s.targets)]
        cells = [str(s.sample_id)]
        cells += [repr(float(v)) for v in (*s.inputs, *targets)]
        cells.append(str(int(s.converged)))
        lines.append(",".join(cells))
    return "".join(line + "\r\n" for line in lines).encode()


def test_csv_writer_matches_per_cell_reference(base_net, tmp_path):
    samples, meta = generate(base_net, 300, mult_range=(1.0, 5.5), seed=5)
    assert any(not s.converged for s in samples)  # NaN target rows
    assert {lab.endswith("_deg") for lab in meta.target_labels} == {True, False}
    path = tmp_path / "data.csv"
    write_dataset_csv(samples, meta, path)
    assert path.read_bytes() == reference_dataset_csv(samples, meta)


def per_row_dataset_csv(samples, meta, path):
    """The per-row csv.writer loop that the block writer replaced."""
    header = ["sample_id", *meta.input_labels, *meta.target_labels, "converged"]
    angle = np.array([lab.startswith("delta_") and lab.endswith("_deg")
                      for lab in meta.target_labels], dtype=bool)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            targets = np.where(angle, np.degrees(s.targets), s.targets)
            values = np.concatenate([s.inputs, targets]).tolist()
            writer.writerow([s.sample_id, *map(repr, values), int(s.converged)])


def signed_zero_column(samples):
    """A column of 0.0 in every row but one, which holds -0.0: one value, two
    bit patterns."""
    samples.inputs[:, 0] = 0.0
    samples.inputs[7, 0] = -0.0
    return samples


def one_row_thrice(samples):
    """Every column, floats included, with one bit pattern: the row template
    holds no %r and the body is one line repeated."""
    return samples[[3, 3, 3]]


@pytest.mark.parametrize("n, mult_range, opts, pick", [
    (300, (0.8, 1.2), {}, None),
    (300, (0.8, 1.2), {"coupled": True}, None),
    (300, (0.8, 1.2), {"perturb_all_loads": True}, None),
    (300, (0.8, 1.2), {"coupled": True, "perturb_all_loads": True}, None),
    (300, (1.0, 5.5), {}, None),
    (300, (1.0, 5.5), {}, lambda s: s[~s.converged]),
    (300, (0.8, 1.2), {}, lambda s: s[:1]),
    (300, (0.8, 1.2), {}, lambda s: s[:0]),
    (300, (0.8, 1.2), {}, signed_zero_column),
    (300, (0.8, 1.2), {}, one_row_thrice),
    (2000, (0.8, 1.2), {}, None),
], ids=["default", "coupled", "perturb_all_loads", "coupled_all_loads", "stressed",
        "nan_targets", "one_row", "empty", "signed_zero", "one_row_thrice", "rows_2000"])
def test_block_writer_matches_per_row_writer(base_net, tmp_path, n, mult_range, opts, pick):
    samples, meta = generate(base_net, n, mult_range=mult_range, seed=5, **opts)
    if mult_range == (1.0, 5.5):
        assert 0 < sum(not s.converged for s in samples) < len(samples)  # rows with nan targets
    if pick is not None:
        samples = pick(samples)
    write_dataset_csv(samples, meta, tmp_path / "block.csv")
    per_row_dataset_csv(samples, meta, tmp_path / "rows.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    if pick is signed_zero_column:
        assert b",-0.0," in (tmp_path / "block.csv").read_bytes()
    if mult_range == (1.0, 5.5) and pick is not None:  # every target column NaN
        assert np.isnan(samples.targets).all() and not samples.converged.any()
    if pick is one_row_thrice:
        body = (tmp_path / "block.csv").read_bytes().split(b"\r\n")[1:]
        assert len(body) == 4 and body[0] == body[1] == body[2] and body[3] == b""


def test_meta_json_round_trip(base_net, tmp_path):
    _, meta = generate(base_net, 8, seed=19)
    path = tmp_path / "meta.json"
    write_meta_json(meta, path)
    assert read_meta_json(path) == meta
    # the recipe (seed, range, flags, split) is dataset_config.json's alone
    assert list(json.loads(path.read_text())) == [
        "n_requested", "n_converged", "network_fingerprint", "input_labels", "target_labels"]


def test_meta_json_reads_files_with_scaler_and_recipe_keys(base_net, tmp_path):
    # meta files from earlier releases also hold the dataset's own scalers and
    # the recipe that the config snapshot now holds alone
    _, meta = generate(base_net, 8, seed=21)
    path = tmp_path / "meta.json"
    write_meta_json(meta, path)
    doc = json.loads(path.read_text())
    scaler = fit_scaler(np.array([[1.0, 2.0], [3.0, 2.0]]), "standard").to_dict()
    doc.update(scaler_kind="standard", feature_scaler=scaler, target_scaler=scaler, **RECIPE_KEYS)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    assert read_meta_json(path) == meta


@pytest.mark.parametrize("labels", [5, "p_load_1", [1, 2], None])
@pytest.mark.parametrize("key", ["input_labels", "target_labels"])
def test_meta_json_labels_must_be_string_lists(base_net, tmp_path, key, labels):
    _, meta = generate(base_net, 4, seed=22)
    path = tmp_path / "meta.json"
    write_meta_json(meta, path)
    doc = json.loads(path.read_text())
    doc[key] = labels
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=key):
        read_meta_json(path)


def test_meta_json_missing_key(base_net, tmp_path):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"seed": 0}))
    with pytest.raises(ParseError):
        read_meta_json(path)
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        read_meta_json(path)
