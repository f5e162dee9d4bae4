"""repro.nn — a numpy autograd framework sized for the paper's models.

Public surface:

* :class:`~repro.nn.tensor.Tensor` with reverse-mode autodiff and
  :func:`~repro.nn.tensor.no_grad`.
* Modules: :class:`Linear`, :class:`Embedding`, :class:`Dropout`,
  :class:`MLP`, :class:`Sequential`, :class:`LSTM`, :class:`GRU`,
  :class:`Bidirectional`, :class:`TCN`, :class:`PositionalAttention`.
* Losses: :func:`bce_with_logits`, :func:`mae_loss`, :func:`mse_loss`.
* Optimizers: :class:`SGD`, :class:`Adam`.
* Compiled inference: :func:`compile_inference` / :func:`get_compiled` /
  :func:`run_compiled` lower a trained ranker into a flat raw-numpy plan
  (see :mod:`repro.nn.compile`); :func:`stable_sigmoid` is the shared
  overflow-safe probability map.
"""

from repro.nn.tensor import (
    Tensor,
    concat,
    embedding_lookup,
    is_grad_enabled,
    no_grad,
    pad_time_left,
    stable_sigmoid,
    stack,
    where_constant,
)
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import MLP, Dropout, Embedding, Linear, ReLU, Sigmoid, Tanh
from repro.nn.rnn import GRU, LSTM, Bidirectional, GRUCell, LSTMCell, make_rnn
from repro.nn.conv import TCN, CausalConv1d, TemporalBlock
from repro.nn.attention import PositionalAttention
from repro.nn.loss import bce_with_logits, mae_loss, mse_loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.compile import (
    CompiledInference,
    CompileError,
    compile_inference,
    get_compiled,
    prewarm,
    run_compiled,
    synthetic_batch,
)

__all__ = [
    "Tensor", "concat", "stack", "embedding_lookup", "no_grad",
    "is_grad_enabled", "pad_time_left", "where_constant", "stable_sigmoid",
    "Module", "Parameter", "Sequential",
    "Linear", "Embedding", "Dropout", "MLP", "ReLU", "Sigmoid", "Tanh",
    "LSTM", "GRU", "LSTMCell", "GRUCell", "Bidirectional", "make_rnn",
    "TCN", "CausalConv1d", "TemporalBlock",
    "PositionalAttention",
    "bce_with_logits", "mae_loss", "mse_loss",
    "SGD", "Adam", "Optimizer",
    "CompiledInference", "CompileError", "compile_inference",
    "get_compiled", "run_compiled", "prewarm", "synthetic_batch",
]
