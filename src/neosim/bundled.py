"""Access to the bundled example model/cluster specs and traces.

The many-table models use the generator stanza: the publicly reported table
shapes give only dim ranges and averages, so the bundled dim palettes are a
documented choice, not a fidelity claim (model-A cycles eight dims averaging
93; model-I and model-F use their single reported dim).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .model import ClusterSpec, ModelSpec, parse_cluster_spec, parse_model_spec

def data_path(name: str) -> Path:
    path = resources.files("neosim").joinpath("data").joinpath(name)
    return Path(str(path))


def load_bundled_model(name: str) -> ModelSpec:
    return parse_model_spec(data_path(f"{name}.json").read_text())


def load_bundled_cluster(name: str = "cluster_16node") -> ClusterSpec:
    return parse_cluster_spec(data_path(f"{name}.json").read_text())
