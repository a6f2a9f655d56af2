"""Small helpers shared by the test modules."""

from __future__ import annotations

import numpy as np

from medner.model import ParamLayout
from medner.training import backward


def backward_grads(params, config, trace, dlogits, fill=np.nan) -> dict[str, np.ndarray]:
    """training.backward into the views of a new gradient vector whose
    elements all start as `fill`, returned by name. The NaN default makes
    any element that backward fails to write fail the checks that read it.
    """
    layout = ParamLayout(config)
    grads = layout.views(np.full(layout.size, fill, dtype=params["emb.tok"].dtype))
    backward(params, config, trace, dlogits, grads)
    return grads
