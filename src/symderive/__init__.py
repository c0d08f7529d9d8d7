"""symderive: symbolic formula derivation by tree rewriting.

Formulas are immutable multiway trees with a textual constructor syntax;
rewrite rules are template pairs applied by subtree matching; trees encode to
fixed-length integer vectors; and two small learners (a tabular Q store and a
softmax policy network) learn which rule to apply next, demonstrated on
first-order linear ordinary differential equations.
"""

from .encoding import SymbolTable, default_table, distance, encode
from .errors import Error
from .expr import Formula, func, mk, num, parse, sym, to_text
from .pattern import Match, Pattern, compile_template, find_all, find_first, match_at
from .rewrite import (
    Rule,
    RuleSet,
    apply_rule_at,
    apply_rule_first,
    load_rules,
    packaged_rules,
    register_derived_rule,
    save_rules,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "Error",
    "Formula",
    "Match",
    "Pattern",
    "Rule",
    "RuleSet",
    "SymbolTable",
    "__version__",
    "apply_rule_at",
    "apply_rule_first",
    "compile_template",
    "default_table",
    "distance",
    "encode",
    "find_all",
    "find_first",
    "func",
    "load_rules",
    "match_at",
    "mk",
    "num",
    "packaged_rules",
    "parse",
    "register_derived_rule",
    "save_rules",
    "substitute",
    "sym",
    "to_text",
]
