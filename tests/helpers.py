"""Small helpers shared by the test modules."""

from __future__ import annotations

import numpy as np

from medner.model import ParamLayout, backward, init_params


def init_param_views(config, seed, dtype=np.float32) -> dict[str, np.ndarray]:
    """The vector of init_params(config, seed, dtype), by name: its
    ParamLayout.views."""
    return ParamLayout(config).views(init_params(config, seed, dtype))


def backward_grads(params, config, trace, dlogits, fill=np.nan) -> dict[str, np.ndarray]:
    """model.backward into the views of a new gradient vector whose
    elements all start as `fill`, returned by name. The NaN default makes
    any element that backward fails to write fail the checks that read it.
    """
    layout = ParamLayout(config)
    grads = layout.views(np.full(layout.size, fill, dtype=params["emb.tok"].dtype))
    backward(params, config, trace, dlogits, grads)
    return grads


# The summation formula the model's bit-pinned tests reproduce: a sum over
# the last axis is the rows times a ones vector, a sum over the rows a ones
# vector times the rows, each one BLAS matvec, and a mean divides the sum.


def matvec_row_sums(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    return (z.reshape(-1, n) @ np.ones(n, dtype=z.dtype)).reshape(z.shape[:-1] + (1,))


def matvec_row_means(z: np.ndarray) -> np.ndarray:
    return matvec_row_sums(z) / z.shape[-1]


def matvec_column_sums(y: np.ndarray) -> np.ndarray:
    return np.ones(len(y), dtype=y.dtype) @ y
