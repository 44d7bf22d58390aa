"""Parameter save/load for modules (npz-based).

A trained Info-RNN-GAN represents minutes of numpy compute; these helpers
persist any :class:`repro.nn.Module`'s parameters so a pre-trained
predictor can be shipped with an experiment instead of re-trained.

Parameters are addressed positionally: :meth:`Module.parameters` returns
a deterministic order for a fixed architecture (attribute insertion
order), so saving and loading require the *same* architecture and
construction path.  Shape mismatches fail loudly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.layers import Module

__all__ = [
    "save_parameters",
    "load_parameters",
    "parameters_equal",
    "module_state_dict",
    "load_module_state_dict",
]


def save_parameters(module: Module, path: Union[str, Path]) -> int:
    """Write all parameters to an ``.npz``; returns the parameter count."""
    params = module.parameters()
    if not params:
        raise ValueError("module has no parameters to save")
    arrays = {f"p{i}": p.data for i, p in enumerate(params)}
    np.savez(Path(path), **arrays)
    return len(params)


def load_parameters(module: Module, path: Union[str, Path]) -> int:
    """Load parameters saved by :func:`save_parameters` (in place).

    The module must have the same architecture (same number of parameters
    with the same shapes, in the same order); returns the count loaded.
    """
    params = module.parameters()
    with np.load(Path(path)) as archive:
        names = [f"p{i}" for i in range(len(archive.files))]
        if len(names) != len(params):
            raise ValueError(
                f"archive holds {len(names)} parameters, module has "
                f"{len(params)} — architecture mismatch"
            )
        for index, (param, name) in enumerate(zip(params, names)):
            stored = archive[name]
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"parameter {index} shape mismatch: archive "
                    f"{stored.shape} vs module {param.data.shape}"
                )
            param.data = stored.copy()
    return len(params)


def module_state_dict(module: Module) -> Dict[str, np.ndarray]:
    """In-memory parameter snapshot using the same positional addressing
    (``p{i}``) as :func:`save_parameters` — the checkpoint subsystem's
    building block for embedding module weights in larger state trees."""
    return {f"p{i}": p.data.copy() for i, p in enumerate(module.parameters())}


def load_module_state_dict(module: Module, state: Dict[str, np.ndarray]) -> int:
    """Restore :func:`module_state_dict` output (in place); returns count.

    Same architecture contract as :func:`load_parameters`: parameter
    count and per-parameter shapes must match.
    """
    params = module.parameters()
    if len(state) != len(params):
        raise ValueError(
            f"state holds {len(state)} parameters, module has "
            f"{len(params)} — architecture mismatch"
        )
    for index, param in enumerate(params):
        stored = np.asarray(state[f"p{index}"])
        if stored.shape != param.data.shape:
            raise ValueError(
                f"parameter {index} shape mismatch: state "
                f"{stored.shape} vs module {param.data.shape}"
            )
        param.data = stored.astype(param.data.dtype, copy=True)
    return len(params)


def parameters_equal(a: Module, b: Module) -> bool:
    """True when two same-architecture modules hold identical parameters."""
    pa, pb = a.parameters(), b.parameters()
    if len(pa) != len(pb):
        return False
    return all(
        x.data.shape == y.data.shape and np.array_equal(x.data, y.data)
        for x, y in zip(pa, pb)
    )
