"""repro.lint — AST-based determinism & simulation-safety analyzer.

The reproduction's headline guarantee is bit-identical replay: the same
:class:`~repro.eval.runner.ScenarioSpec` produces the same bytes whether
it runs in-process, across a worker pool, or from the result cache, under
any ``PYTHONHASHSEED``.  Two shipped bugs (the SFQ salted-``hash()``
buckets, the non-canonical ``ReturnInfo`` decode) broke that guarantee
and were only caught empirically.  This package rejects the whole bug
class statically, one file at a time:

=====  ====================  =============================================
code   slug                  hazard
=====  ====================  =============================================
D001   hash-builtin          builtin ``hash()`` feeding keying/scheduling
D002   unordered-iter        set / unsorted dict-view iteration
D003   unseeded-random       ambient global RNG, ``random.Random()``
D004   wall-clock            wall-clock reads inside the simulation core
D005   mutable-default       mutable default arguments
D006   rng-provenance        ``random.Random(<literal>)``
S001   swallowed-exception   bare/silent exception handlers
P001   hot-path-codec        per-packet codec work in the fast path
P002   hot-path-alloc        discarded Event / direct ``Packet()``
=====  ====================  =============================================

Contracts that span modules (every spec/knob field reaches the cache
key, every registered scheme satisfies ``SchemeFactory``, every
``__all__`` name resolves, pool callables pickle) are not guessed at
here: they are total ``asdict`` forms checked by the runtime tests named
in DESIGN.md, "Determinism rules".

Run it as ``repro lint`` (text, ``--format json``, ``--format github``,
``--baseline`` support), from Python via :func:`lint_paths`, or rely on
the CI gate — ``tests/lint/test_self_clean.py`` keeps ``src/repro`` at
zero unsuppressed findings.  Deliberate exceptions carry an inline
``# repro: allow-<slug>`` with a one-line justification.
"""

from .baseline import Baseline, fingerprints_for
from .engine import (
    Finding,
    LintEngine,
    LintError,
    infer_module,
    lint_paths,
    mark_baselined,
)
from .report import render_github, render_json, render_text, summarize
from .rules import RULES, RULES_BY_KEY, FileContext, Rule, SIM_MODULES

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintEngine",
    "LintError",
    "RULES",
    "RULES_BY_KEY",
    "Rule",
    "SIM_MODULES",
    "fingerprints_for",
    "infer_module",
    "lint_paths",
    "mark_baselined",
    "render_github",
    "render_json",
    "render_text",
    "summarize",
]
