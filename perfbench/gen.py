"""Seeded input generators for the benchmark workloads.

Each generator fixes its traffic mix exactly: how many questions of each
kind, the chain-length histogram, and the share of swapped, wrong,
prose-wrapped, unparseable and unicode samples. The seed picks only the
arrangement and the text: which question gets which kind, the words,
the swap positions and the wrong answers. Two seeds therefore give the
same amount of work of the same kinds, which keeps run-to-run spread
low, while no run depends on a seed that happens to pass.

Every chain ends at a terminal step that names the answer. Swaps only
ever exchange two non-terminal steps, so the terminal step is a sink in
every sample and never lies on a cycle of the merge union. The merged
graph therefore always keeps an edge into its conclusion. This is a
property of the traffic, not of a seed.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

K = 5
OPTION_LETTERS = "ABCDE"

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu"
).split()
# Each of these changes length when lowercased ("İ".lower() is two code
# points), which is what trips offset arithmetic done on lowered text.
UNICODE_WORDS = ("İstanbul", "İzmir", "İnegöl", "İpek")
VERBS = ("implies", "rules out", "supports", "fixes", "bounds", "narrows")

QID_RE = re.compile(r"\[(q\d+)\]")

# Sample kinds.
STRICT = "strict"  # the exact template, strict-valid
LENIENT = "lenient"  # prose-wrapped template: only lenient parsing accepts it
CUE = "cue"  # prose with an answer cue and no template: unparseable

# A block of 20 build questions. The shares are assumptions, not fitted to
# any teacher traffic: one row per voting case a correctness check covers,
# with common cases doubled to fill the block (README.md gives the basis of
# each). Each row is (samples, unicode, long, count),
# where samples counts a question's k=5 samples as
# (correct strict, correct lenient-only, wrong strict, wrong lenient-only, cue-only).
# Rows with a strict correct majority must be retained and rows with a strict
# wrong majority must be discarded, whatever lenient parsing does. The two
# (1, 2, 2, 0, 0) rows are decided by the lenient samples: the unicode one
# shows whether lenient parsing copes with case-changing text.
BUILD_BLOCK = (
    ((5, 0, 0, 0, 0), False, False, 2),
    ((5, 0, 0, 0, 0), True, False, 1),
    ((4, 1, 0, 0, 0), False, False, 2),
    ((4, 1, 0, 0, 0), False, True, 1),
    ((4, 1, 0, 0, 0), True, False, 1),
    ((3, 1, 1, 0, 0), False, False, 2),
    ((3, 0, 1, 0, 1), False, False, 1),
    ((3, 0, 1, 0, 1), True, False, 1),
    ((3, 0, 0, 1, 1), False, False, 1),
    ((4, 0, 0, 0, 1), False, False, 1),
    ((1, 2, 2, 0, 0), False, False, 1),
    ((1, 2, 2, 0, 0), True, False, 1),
    ((2, 0, 2, 0, 1), False, False, 1),
    ((1, 0, 3, 1, 0), False, False, 1),
    ((0, 1, 4, 0, 0), False, False, 1),
    ((1, 0, 4, 0, 0), False, False, 1),
    ((0, 0, 0, 0, 5), False, False, 1),
)

# A block of 20 eval replies: (kind, correct, unicode, long, count). These
# shares are assumptions too: each kind appears right and wrong, and a
# strict-valid majority is assumed, as from a teacher prompted with the template.
EVAL_BLOCK = (
    (STRICT, True, False, False, 7),
    (STRICT, True, True, False, 1),
    (STRICT, True, False, True, 1),
    (STRICT, False, False, False, 3),
    (LENIENT, True, False, False, 2),
    (LENIENT, True, True, False, 1),
    (LENIENT, False, False, False, 1),
    (LENIENT, True, False, True, 1),
    (CUE, True, False, False, 2),
    (CUE, False, False, False, 1),
)

SHORT_STEPS = range(3, 13)
# The long tail stops near what the default 1024-token reply cap allows.
LONG_STEPS = (40, 120)


def _exact_mix(rng: random.Random, rows, count_at: int, n: int) -> list:
    """n entries from repeated blocks of rows, each row repeated count times, shuffled."""
    block = [row[:count_at] for row in rows for _ in range(row[count_at])]
    entries = [block[i % len(block)] for i in range(n)]
    rng.shuffle(entries)
    return entries


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n lengths spaced evenly over [lo, hi], so every seed gets the same histogram."""
    if n == 1:
        return [(lo + hi) // 2]
    return [lo + round((hi - lo) * i / (n - 1)) for i in range(n)]


def _lengths(rng: random.Random, longs: list[bool]) -> list[int]:
    """Chain lengths: short ones cycle through SHORT_STEPS, long ones spread over LONG_STEPS."""
    long_lengths = _spread(*LONG_STEPS, sum(longs))
    rng.shuffle(long_lengths)
    long_it, short_it = iter(long_lengths), itertools.cycle(SHORT_STEPS)
    return [next(long_it) if is_long else next(short_it) for is_long in longs]


def _label(rng: random.Random, i: int) -> tuple[str, str]:
    """(label, wrong answer): even positions are option letters, odd ones numbers."""
    if i % 2 == 0:
        label = rng.choice(OPTION_LETTERS)
        wrong = rng.choice([c for c in OPTION_LETTERS if c != label])
        return label, wrong
    value = rng.randint(2, 9999)
    label = f"{value:,}" if value >= 1000 and rng.random() < 0.5 else str(value)
    return label, str(value + rng.randint(1, 50))


def facts(rng: random.Random, n: int, unicode: bool) -> list[str]:
    out = []
    for j in range(n):
        first = rng.choice(UNICODE_WORDS) if unicode and j % 3 == 0 else rng.choice(WORDS)
        out.append(f"{first} {rng.choice(VERBS)} {rng.choice(WORDS)} {j}")
    return out


def chain(nodes: list[str], terminal: str, swaps: int, rng: random.Random) -> list[tuple[str, str]]:
    """Steps of a chain over nodes ending at terminal, with adjacent node swaps."""
    order = list(nodes)
    # Non-overlapping adjacent pairs among the facts only, never the terminal.
    slots = list(range(0, len(order) - 1, 2))
    for j in sorted(rng.sample(slots, min(swaps, len(slots)))):
        order[j], order[j + 1] = order[j + 1], order[j]
    order.append(terminal)
    return list(zip(order, order[1:]))


def template(steps: list[tuple[str, str]], answer: str, arrow: str = "→") -> str:
    lines = ["<reasoning>"]
    lines.extend(f"<step> {parent} {arrow} {child} </step>" for parent, child in steps)
    lines.append("</reasoning>")
    lines.append(f"<answer> {answer} </answer>")
    return "\n".join(lines)


def _wrap_prose(doc: str, rng: random.Random) -> str:
    """Prose around the template, sometimes with upper-case tags: lenient only."""
    if rng.random() < 0.5:
        doc = doc.replace("<reasoning>", "<Reasoning>").replace("</reasoning>", "</Reasoning>")
    return f"Sure. I broke the question into steps first.\n{doc}\nI hope this helps."


def _cue_only(answer: str, rng: random.Random) -> str:
    return f"Weighing {rng.choice(WORDS)} against {rng.choice(WORDS)}, the answer is {answer}."


def _terminal(answer: str) -> str:
    return f"so the answer is {answer}"


@dataclass
class BuildInputs:
    """Questions, the k replies per question, and what the outputs must show."""

    questions: list[tuple[str, str, str]]  # (question, label, source id)
    replies: dict[str, list[str]]
    must_retain: set[str] = field(default_factory=set)
    must_discard: set[str] = field(default_factory=set)
    all_unparseable: set[str] = field(default_factory=set)
    transient: frozenset = frozenset()  # (source id, sample index) whose first send fails


def _expected(kinds: list[tuple[str, bool]], lenient_sure: bool) -> bool | None:
    """Whether the majority answer must be the label; None when parsing leaves it open.

    Strict samples always parse. Lenient-only samples count as parsed when
    ``lenient_sure``; otherwise either outcome is allowed for them.
    """
    sure = [(i, ok) for i, (kind, ok) in enumerate(kinds)
            if kind == STRICT or (kind == LENIENT and lenient_sure)]
    right = [i for i, ok in sure if ok]
    wrong = [i for i, ok in sure if not ok]
    open_right = open_wrong = 0
    if not lenient_sure:
        open_right = sum(1 for kind, ok in kinds if kind == LENIENT and ok)
        open_wrong = sum(1 for kind, ok in kinds if kind == LENIENT and not ok)
    if len(right) > len(wrong) + open_wrong:
        return True
    if len(wrong) > len(right) + open_right:
        return False
    if open_right == open_wrong == 0 and right and len(right) == len(wrong):
        # Equal groups: the one holding the lowest sample index wins.
        return right[0] < wrong[0]
    return None


def build_inputs(seed: int, n: int, transient_share: float = 0.0) -> BuildInputs:
    rng = random.Random(f"build:{seed}")
    mix = _exact_mix(rng, BUILD_BLOCK, 3, n)
    lengths = _lengths(rng, [row[2] for row in mix])
    inputs = BuildInputs(questions=[], replies={})
    for i, ((cs, cl, ws, wl, cue), unicode, _), steps in zip(range(n), mix, lengths):
        qid = f"q{i:05d}"
        label, wrong = _label(rng, i)
        kinds = [(STRICT, True)] * cs + [(LENIENT, True)] * cl + [(STRICT, False)] * ws
        kinds += [(LENIENT, False)] * wl + [(CUE, True)] * cue
        rng.shuffle(kinds)
        nodes = facts(rng, steps, unicode)
        parseable = [j for j, (kind, _) in enumerate(kinds) if kind != CUE]
        swapped = set(rng.sample(parseable, min(2, len(parseable))))
        texts = []
        for j, (kind, correct) in enumerate(kinds):
            answer = label if correct else wrong
            if kind == CUE:
                texts.append(_cue_only(answer, rng))
                continue
            swaps = max(1, steps // 20) if j in swapped else 0
            lines = chain(nodes, _terminal(answer), swaps, rng)
            if j % 2:
                # Same step in another case: identical node after normalization.
                at = rng.randrange(len(lines))
                lines[at] = (lines[at][0].upper(), lines[at][1])
            doc = template(lines, answer, "->" if (i + j) % 2 else "→")
            texts.append(_wrap_prose(doc, rng) if kind == LENIENT else doc)
        question = f"[{qid}] Given the premises about {rng.choice(WORDS)}, what follows?"
        inputs.questions.append((question, label, qid))
        inputs.replies[qid] = texts
        if cue == K:
            inputs.all_unparseable.add(qid)
        # Lenient parsing must accept a prose-wrapped template; with case-changing
        # text it is known not to, so those outcomes are left open (and measured).
        verdict = _expected(kinds, lenient_sure=not unicode)
        if verdict is True:
            inputs.must_retain.add(qid)
        elif verdict is False:
            inputs.must_discard.add(qid)
    pairs = [(qid, j) for qid in inputs.replies for j in range(K)]
    inputs.transient = frozenset(rng.sample(pairs, round(transient_share * len(pairs))))
    return inputs


@dataclass
class EvalInputs:
    """Benchmark items, one reply each, and the outcome each reply must score."""

    items: list[tuple[str, str, str, str]]  # (question, label, benchmark, item id)
    replies: dict[str, str]
    texts: list[str]  # replies in item order, as score_batch takes them
    labels: list[str]
    answer: dict[str, str]  # item id -> the candidate the reply must yield
    correct: dict[str, bool]
    strict_valid: dict[str, bool]
    # True: the reply must yield a graph; False: it must not; None: left open,
    # for lenient-only replies with case-changing text.
    structured: dict[str, bool | None]
    steps: dict[str, int]


def eval_inputs(seed: int, n: int) -> EvalInputs:
    rng = random.Random(f"eval:{seed}")
    mix = _exact_mix(rng, EVAL_BLOCK, 4, n)
    lengths = _lengths(rng, [row[3] for row in mix])
    out = EvalInputs([], {}, [], [], {}, {}, {}, {}, {})
    for i, (kind, correct, unicode, _), steps in zip(range(n), mix, lengths):
        qid = f"q{i:05d}"
        label, wrong = _label(rng, i)
        benchmark = ("logiqa", "arlsat")[i // 2 % 2] if i % 2 == 0 else "aiw"
        answer = label if correct else wrong
        if kind == CUE:
            text = _cue_only(answer, rng)
            out.answer[qid] = f"{answer}."
        else:
            lines = chain(facts(rng, steps, unicode), _terminal(answer), 0, rng)
            doc = template(lines, answer, "->" if i % 3 == 0 else "→")
            text = _wrap_prose(doc, rng) if kind == LENIENT else doc
            out.answer[qid] = answer
        question = f"[{qid}] Given the premises about {rng.choice(WORDS)}, what follows?"
        out.items.append((question, label, benchmark, qid))
        out.replies[qid] = text
        out.texts.append(text)
        out.labels.append(label)
        out.correct[qid] = correct
        out.strict_valid[qid] = kind == STRICT
        out.structured[qid] = None if kind == LENIENT and unicode else kind != CUE
        out.steps[qid] = steps
    return out


def question_id(prompt: str) -> str:
    match = QID_RE.search(prompt)
    if match is None:
        raise KeyError(f"no question id in prompt {prompt[:60]!r}")
    return match.group(1)
