"""A from-scratch numpy neural-network framework.

This package is the reproduction's substitute for PyTorch: reverse-mode
autodiff (:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.modules`),
functional ops including convolution (:mod:`repro.nn.functional`),
optimizers (:mod:`repro.nn.optim`), policy distributions
(:mod:`repro.nn.distributions`) and checkpointing
(:mod:`repro.nn.serialization`).
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
    flatten_gradients,
    global_grad_norm,
    unflatten_vector,
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
    "global_grad_norm",
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
