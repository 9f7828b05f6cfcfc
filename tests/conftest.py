import json
from pathlib import Path

import numpy as np
import pytest

from qnpflow.grid import load_network

NETWORK_PATH = Path(__file__).resolve().parent.parent / "networks" / "paper4bus"


@pytest.fixture(scope="session")
def base_net():
    return load_network(NETWORK_PATH)


@pytest.fixture()
def network_doc():
    """Mutable copy of the shipped network file for invalid-input tests."""
    return json.loads(NETWORK_PATH.read_text())


def write_doc(doc, tmp_path, name="net"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def write_parent_layout(prefix):
    """Rewrite the dataset files under `prefix` in the layout of the releases
    that also wrote the load multipliers: after sample_id, a `mult_p<bus>`,
    `mult_q<bus>` pair per PQ bus holding the sample's draws, and their labels
    as the meta's `mult_labels`, formatted as those releases wrote them. The
    cells hold today's draws, which differ from the ones those releases drew
    for the same seed; the header check rejects the layout before any cell
    is read. Only the default draws (neither coupled nor perturbing every
    load)."""
    meta_path = Path(f"{prefix}_meta.json")
    meta = json.loads(meta_path.read_text())
    assert not (meta["coupled"] or meta["perturb_all_loads"])
    pq = [lab.removeprefix("v_mag_") for lab in meta["target_labels"] if lab.startswith("v_mag_")]
    labels = [f"mult_{side}{bus}" for bus in pq for side in "pq"]
    draws = np.random.default_rng(meta["seed"]).uniform(
        meta["mult_low"], meta["mult_high"], (meta["n_requested"], len(labels)))
    for split in ("train", "test"):
        path = Path(f"{prefix}_{split}.csv")
        header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
        lines = [header.replace("sample_id,", f"sample_id,{','.join(labels)},", 1)]
        for row in rows:
            sample_id, rest = row.split(",", 1)
            lines.append(",".join([sample_id, *map(repr, draws[int(sample_id)].tolist()), rest]))
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    old = {}
    for key, value in meta.items():
        if key == "input_labels":
            old["mult_labels"] = labels
        old[key] = value
    meta_path.write_text(json.dumps(old, indent=1) + "\n")
