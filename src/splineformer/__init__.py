"""Exact-arithmetic attention blocks, max-min spline compilation to
encoder weights, and verification oracles."""

from .tensor import (FLOAT, NEG_INF, RATIONAL, BackendError,
                     DegenerateColumnError, Mat, ShapeError, matmul, stack_rows)
from .spline import (FormSizeError, Monomial, ONE, PBForm, Polynomial,
                     SplineGrid, UnsupportedProductError, eval_maxdef,
                     normalize_to_pbform)
from .veronese import (VeroneseIndex, factor_pair, graded_lex_monomials,
                       veronese_dim, veronese_eval)
from .transformer import (RELU, SOFTMAX, Activation, DecoderBlock, EncDecStack,
                          EncDecStage, EncoderBlock, EncoderModel, FeedForwardNet,
                          MultiheadAttention, attention_head, eval_encdec,
                          eval_encoder, eval_ffn, eval_multihead,
                          eval_multihead_encdec, softplus)
from .compiler import (CompileOptions, CompiledEncoder, MonomialLayout,
                       NotAutoregressiveError, ResourceLimitError, build_eps2,
                       build_veronese_encoder, compile_autoregressive,
                       compile_spline, ffn_block_form, ffn_to_encoder_blocks,
                       linear_spline_to_ffn)
from .verifier import (DegreeReport, EquivReport, PrefixReport,
                       autoregressive_check, estimate_degree, oracle_equiv,
                       random_fraction, random_rational_mat,
                       smooth_convergence_table, smooth_swap,
                       softplus_error_bound, trial_rng)

__all__ = [name for name in dir() if not name.startswith("_")]
