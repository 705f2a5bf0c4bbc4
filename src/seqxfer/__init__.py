"""Character-aware BiLM + BiLSTM-CRF sequence tagging with cross-lingual
transfer tooling (vocabulary-head surgery, label-space mapping, span-exact
evaluation and corpus overlap analysis)."""

__version__ = "0.1.0"

from .autodiff import (Adam, Tensor, clip_by_global_norm,
                       finite_difference_check, reverse_gradients, seeded_init)
from .checkpoint import Checkpoint
from .corpus import (EntitySpan, LabeledSequence, Vocabulary, bio_to_spans,
                     build_char_vocab, build_vocab, contiguous_to_bio,
                     load_word_vectors, read_conll, spans_to_bio, write_conll)
from .evaluation import (SpanMetrics, annotation_quality, span_f1,
                         vocab_overlap, word_tag_overlap)
from .tagger import (LabelSet, TaggerConfig, TaggerModel, crf_log_partition,
                     crf_sequence_score, predict, train_tagger, viterbi_decode)
from .transfer import (TransferPolicy, TransferReport, build_shared_char_vocab,
                       map_label_space, transfer_init)
from .bilm import (BiLMConfig, bilm_loss, contextual_repr, perplexity,
                   replace_vocab_head, train_lm)
from .encoder import CharEncoderConfig
