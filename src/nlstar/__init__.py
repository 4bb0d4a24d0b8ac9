"""Active learning of deterministic automata over alphabets with binders."""

from .words import (
    CLOSE,
    EPSILON,
    OPEN,
    Alphabet,
    IllegalWordError,
    WordSyntaxError,
    concat,
    depth,
    is_legal,
    parse_word,
    prefixes,
    reg,
    serialize_word,
)
from .regex import (
    FreeNameError,
    NotCanonicalError,
    RegexSyntaxError,
    TreeTooDeepError,
    canonicalize,
    denote_bounded,
    format_regex,
    infer_sigma,
    is_canonical,
    is_closed,
    parse_regex,
    theta,
)
from .automaton import (
    EPS,
    AlphabetMismatchError,
    InvalidAutomatonError,
    NominalAutomaton,
    NondeterministicInputError,
    SchemaError,
    Strategy,
    accepts,
    determinize,
    equivalence,
    from_json,
    isomorphic,
    minimize,
    state_count,
    to_dot,
    to_json,
)
from .automaton import compile as compile_regex
from .teacher import Answer, Teacher
from .learner import (
    CounterexampleError,
    LearnConfig,
    NotClosedOrConsistentError,
    ObservationTable,
    RoundLimitError,
    RunStats,
    init_table,
    run_nlstar,
)
from .oracle import EnumBound, brute_equivalence, brute_membership, enumerate_legal

__version__ = "0.1.0"
