"""ttnborn: tree tensor network Born machines with exact likelihoods.

Generative modeling of binary images where the probability of a
configuration is the squared amplitude of a tree tensor network, normalized
by an exactly computable partition function.  Includes canonical-form
sweeping training, direct sampling, matrix product state and tree factor
graph baselines, and a reproducible CLI.
"""

from .tensor import DenseTensor, qr_split, svd_split
from .born import (canonicalize, correlation, correlation_map, log_probs,
                   marginal, max_canonical_deviation, nll, partition_function,
                   push_qr, single_site_marginals)
from .ttn import TtnModel, build_random
from .training import (TrainConfig, TrainStats, gradient_one_site,
                       gradient_two_site, merged_tensor, sweep_epoch, train)
from .sampling import sample_batch, save_samples_pbm
from .data import (BinaryDataset, OrderingDescriptor, apply_ordering,
                   gen_random_patterns, invert_ordering, load_binarized_text,
                   make_ordering, save_binarized_text)
from .mps import MpsModel, mps_build_random, mps_train
from .factor_graph import (TreeFactorGraph, fg_nll, fg_to_ttn, fg_train,
                           heap_shaped_fg, sum_product_log_z)
from .checkpoint import load_checkpoint, save_checkpoint
from . import pbm

__version__ = "0.1.0"
