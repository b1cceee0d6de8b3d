"""Golden outputs: the plan JSON and the simulate report body of the bundled
models, pinned by SHA-256.

The digests were captured at commit 812b26e, before the planner and the
simulator were rewritten for speed (id->index maps, one volume pass per
simulate, the O(shards + W) input-AlltoAll volume, heap greedy placement).
Any change that moves a digest changes what neosim prints; a pure
performance change must leave every digest as it is.
"""

import hashlib
import json

import pytest

from neosim.bundled import data_path
from neosim.cli import main

CLUSTER = str(data_path("cluster_16node.json"))

# (model, CLI policy and precision flags) -> (plan_to_json digest, simulate body digest)
GOLDEN = {
    ("model_a", ("--fp16-tables",)): (
        "b341b40738000e6f08eda0edbf14181bc68fea75da03f11af81a3fcc296a8f6c",
        "2ea98020d415d2288816b165a20747327653c29ca5d3b68eb355eb3245812b45",
    ),
    ("model_a", ("--fp16-tables", "--heuristic", "kk")): (
        "ffe4d4ab85c04a1d3e47f23749b26070fa6f42b240737f0470471f504171399f",
        "e91b23115788b95dc195e4bdb6f7a707a607b154ad8b0c009cd6e9e25c9294cf",
    ),
    (
        "model_a",
        (
            "--fp16-tables",
            "--hierarchical",
            "--a2a-fwd-precision",
            "fp16",
            "--a2a-bwd-precision",
            "bf16",
        ),
    ): (
        "b87bdaf664913ef9151e2ec2fb2da836d436c6afc0d8c8a409c5a86ec851fbaf",
        "6c849bb00d212d0e630f624dcaf893b44e39d618ad336a6a100aeb456ad839db",
    ),
    ("model_i", ("--hierarchical",)): (
        "164fc8e7abaaa640bc76a2caed7c0ef9061bd4f737db658a0eb32db43d08bb1e",
        "7058ff77b4246a362a0d309c9f9a311c04d24325d3b97efaf5cbfc5f374d12d0",
    ),
    ("model_f", ("--fp16-tables", "--fine-grain")): (
        "f55924286278ec201f0c51ac89bf6dd42f48b30350c0f3ec6ab8abb8ddc430fe",
        "fe6e600dd3827de810796e0736c800077d635b79c2e5a8d09f35a1ffb16988cc",
    ),
}

SIM_ONLY = ("--a2a-fwd-precision", "--a2a-bwd-precision")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_flags(flags):
    """Drop the simulate-only precision options, which `plan` does not take."""
    out, skip = [], False
    for f in flags:
        if skip:
            skip = False
        elif f in SIM_ONLY:
            skip = True
        else:
            out.append(f)
    return out


def golden_digests(tmp_path, model, flags):
    model_path = str(data_path(f"{model}.json"))
    plan_path = tmp_path / "plan.json"
    common = ["--model", model_path, "--cluster", CLUSTER]
    assert main(["plan", *common, *_plan_flags(flags), "--out", str(plan_path)]) == 0
    assert main(["simulate", *common, *flags, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "simulate.json").read_text())["body"]
    return (
        _sha(plan_path.read_text()),
        _sha(json.dumps(body, indent=2, sort_keys=True)),
    )


@pytest.mark.parametrize(
    "model,flags",
    list(GOLDEN),
    ids=["a-greedy", "a-kk", "a-hierarchical", "i-hierarchical", "f-fine_grain"],
)
def test_golden_plan_and_simulate(tmp_path, capsys, model, flags):
    assert golden_digests(tmp_path, model, flags) == GOLDEN[(model, flags)]
