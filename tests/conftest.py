import json
from pathlib import Path

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


# The recipe keys that meta files held before the config snapshot alone kept
# the recipe, as a `dataset --seed 0` run with the default options wrote them.
RECIPE_KEYS = {"seed": 0, "mult_low": 0.8, "mult_high": 1.2, "coupled": False,
               "perturb_all_loads": False, "split_ratio": 0.8, "split_seed": 0}


def write_parent_layout(prefix):
    """Rewrite the dataset files under `prefix` in the layout of the releases
    that also wrote the load multipliers: after sample_id, a `mult_p<bus>`,
    `mult_q<bus>` pair per PQ bus (the layout of the default draws, neither
    coupled nor perturbing every load), and in the meta their labels as
    `mult_labels` and the recipe keys. Every multiplier cell holds 1.0: the
    header check rejects the layout before any cell is read."""
    meta_path = Path(f"{prefix}_meta.json")
    meta = json.loads(meta_path.read_text())
    pq = [lab.removeprefix("v_mag_") for lab in meta["target_labels"] if lab.startswith("v_mag_")]
    labels = [f"mult_{side}{bus}" for bus in pq for side in "pq"]
    for split in ("train", "test"):
        path = Path(f"{prefix}_{split}.csv")
        header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
        lines = [header.replace("sample_id,", f"sample_id,{','.join(labels)},", 1)]
        lines += [row.replace(",", "," + "1.0," * len(labels), 1) for row in rows]
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    meta_path.write_text(json.dumps({**RECIPE_KEYS, "mult_labels": labels, **meta}, indent=1) + "\n")
