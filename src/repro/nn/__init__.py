"""A from-scratch numpy neural-network framework.

This package is the reproduction's substitute for PyTorch: reverse-mode
autodiff (:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.modules`),
functional ops including convolution (:mod:`repro.nn.functional`),
optimizers (:mod:`repro.nn.optim`), policy distributions
(:mod:`repro.nn.distributions`) and checkpointing
(:mod:`repro.nn.serialization`).

Importing it also sets glibc's heap policy for the process (see
:func:`_hold_the_heap`); a forked worker inherits it.
"""

from . import functional
from . import init
from .distributions import Bernoulli, Categorical
from .executor import (
    ExecutionPlan,
    ForwardPlanner,
    Planner,
    PlanUnsupported,
    fast_path_allowed,
    register_stable_array,
)
from .modules import (
    ChannelLayerNorm,
    Dropout,
    Conv2d,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import (
    SGD,
    Adam,
    Optimizer,
    RMSprop,
    clip_grad_norm,
    clip_grad_vector,
    flatten_gradients,
    global_grad_norm,
    unflatten_vector,
    vector_grad_norm,
)
from .schedulers import CosineDecay, LinearDecay, Scheduler, StepDecay
from .serialization import load_module, load_state_dict_file, save_module
from .tensor import (
    Tensor,
    concat,
    ensure_tensor,
    is_grad_enabled,
    no_grad,
    ones,
    stack,
    where,
    zeros,
)

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _hold_the_heap() -> None:
    """Keep freed numpy buffers in the heap instead of giving them back.

    By default glibc serves a block of 128 KiB or more by ``mmap`` (a
    threshold that then adapts to what is freed) and returns the top of
    the heap to the OS once 128 KiB of it is free.  Every replay
    allocates and frees the same few hundred arrays, so either rule can
    give the pages back after a replay and make the next one fault them
    in again: a forked employee took about 3 000 minor faults per smoke
    episode, the serial process a few.

    ``M_MMAP_THRESHOLD`` is set to 32 MiB, the ceiling glibc's own
    adaptive threshold stops at on a 64-bit build, so every array the
    repo makes comes from the heap: the largest, conv1's im2col at
    ``paper`` scale, is about 14 MB.  Setting it also stops the threshold
    adapting.  ``M_TRIM_THRESHOLD`` is set to 256 MiB, well above a
    training process's working set, so freed heap stays mapped for the
    next replay.  Neither moves a bit: only where a buffer lives changes.
    Off glibc this does nothing.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_hold_the_heap()

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "where",
    "zeros",
    "ones",
    "ensure_tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "LayerNorm",
    "ChannelLayerNorm",
    "Embedding",
    "Sequential",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Optimizer",
    "SGD",
    "Adam",
    "RMSprop",
    "clip_grad_norm",
    "clip_grad_vector",
    "global_grad_norm",
    "vector_grad_norm",
    "flatten_gradients",
    "unflatten_vector",
    "Scheduler",
    "LinearDecay",
    "StepDecay",
    "CosineDecay",
    "Categorical",
    "Bernoulli",
    "save_module",
    "load_module",
    "load_state_dict_file",
    "ExecutionPlan",
    "ForwardPlanner",
    "Planner",
    "PlanUnsupported",
    "fast_path_allowed",
    "register_stable_array",
]
