"""Descriptive grid models for ARC tasks, learned by MDL-guided refinement."""

from .grids import Grid, Delta, Part, delta_apply, segment
from .lang import (
    Ctor, Unknown, Var, App, UNK,
    in_out, grid, pos_shape, point, rectangle, vec, bitmap,
    parse_model, parse_term, term_to_text, model_to_text,
)
from .coding import (
    Normalizer, TaskEval, ModelEvalError,
    l_nat, l_uniform, l_dist, l_position, l_bitmap, l_task, path_similarity,
)
from .parsing import (
    Caches, ParseConfig, Reading, ReadingPair, draw, generate, parse, read, write,
)
from .learn import (
    SearchConfig, Refinement, LearnResult,
    initial_model, propose_refinements, learn, predict, create,
)
from .tasks import Task, Example, TaskReport, BatchReport, load_task, evaluate_task, evaluate_batch

__version__ = "0.1.0"
