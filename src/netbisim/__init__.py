"""Equivalence checking for bounded Place/Transition nets under causal
semantics: fully-concurrent and causal-net bisimilarity, decided on
ordered indexed markings and cross-checked by a process-based oracle."""

from .nets import (
    BoundExceededError, Multiset, NetError, NetSystem, NotEnabledError,
    PTNet, ReachabilityResult, Transition, enabled, fire, reachable,
)
from .indexed import (
    IndexedMarking, InsufficientTokensError, Token, alpha, boxminus, boxplus,
    im_space, initial_indexed, is_closed, im_successors, reachable_im,
)
from .ordered import (
    OIMStep, OrderedIndexedMarking, init_oim, oim_space, oim_successors,
    reachable_oim,
)
from .engine import (
    BisimVerdict, GameTriple, Limits, Refutation, beta_update,
    decide_interleaving, decide_oim, decide_oimc, deleted_condition_cn,
    deleted_condition_fc, format_refutation, format_witness,
    validate_refutation, validate_witness,
)
from .oracle import oracle_game
from .netio import (
    NetDocument, ParseError, export_im_dot, export_oim_dot,
    export_reachability_dot, format_net, parse_net,
)
from .randnets import CorpusConfig, corpus, random_instance

__all__ = [
    "BoundExceededError", "Multiset", "NetError", "NetSystem",
    "NotEnabledError", "PTNet", "ReachabilityResult", "Transition",
    "enabled", "fire", "reachable",
    "IndexedMarking", "InsufficientTokensError", "Token", "alpha",
    "boxminus", "boxplus", "im_space", "initial_indexed", "is_closed",
    "im_successors", "reachable_im",
    "OIMStep", "OrderedIndexedMarking", "init_oim", "oim_space",
    "oim_successors", "reachable_oim",
    "BisimVerdict", "GameTriple", "Limits", "Refutation", "beta_update",
    "decide_interleaving", "decide_oim", "decide_oimc",
    "deleted_condition_cn", "deleted_condition_fc", "format_refutation",
    "format_witness", "validate_refutation", "validate_witness",
    "oracle_game",
    "NetDocument", "ParseError", "export_oim_dot",
    "export_im_dot", "export_reachability_dot", "format_net", "parse_net",
    "CorpusConfig", "corpus", "random_instance",
]
