"""Convolutional sentence classification over word vectors, from scratch.

Single-layer convolution with multiple filter widths, max-over-time pooling,
dropout with test-time weight scaling, an L2 row-norm constraint, Adadelta
updates, and one or two embedding channels (static and/or fine-tuned).
"""

__version__ = "0.1.0"
