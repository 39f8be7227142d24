"""Independent reference implementations used to cross-check the package.

These deliberately take different algorithmic routes than the production
code, which computes edit distances with a bit-parallel LCS. There are two
edit-distance oracles: a full longest-common-subsequence table, and a
rolling one-row insert/delete recurrence. The fuzzy ratio oracles take
either one. The metric oracle counts a confusion matrix into a dict before
computing anything.
"""
from __future__ import annotations


def lcs_len(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def indel_oracle(a: str, b: str) -> int:
    return len(a) + len(b) - 2 * lcs_len(a, b)


def indel_rolling_oracle(a: str, b: str) -> int:
    """Insert/delete DP keeping one row of the table at a time."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        append = cur.append
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                append(prev[j - 1])
            else:
                left = cur[j - 1]
                up = prev[j]
                append((left if left < up else up) + 1)
        prev = cur
    return prev[-1]


INDEL_ORACLES = (indel_oracle, indel_rolling_oracle)


def simple_ratio_oracle(a: str, b: str, indel=indel_oracle) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 100.0
    return 100.0 * (1.0 - indel(a, b) / total)


def partial_ratio_oracle(needle: str, haystack: str, indel=indel_oracle) -> float:
    if len(needle) > len(haystack):
        needle, haystack = haystack, needle
    if not needle:
        return 100.0
    size = len(needle)
    return max(
        simple_ratio_oracle(needle, haystack[start : start + size], indel)
        for start in range(len(haystack) - size + 1)
    )


def token_set_ratio_oracle(a: str, b: str, indel=indel_oracle) -> float:
    tokens_a, tokens_b = set(a.split()), set(b.split())
    common = sorted(tokens_a & tokens_b)
    t0 = " ".join(common)
    d1 = " ".join(common + sorted(tokens_a - tokens_b))
    d2 = " ".join(common + sorted(tokens_b - tokens_a))
    return max(
        simple_ratio_oracle(t0, d1, indel),
        simple_ratio_oracle(t0, d2, indel),
        simple_ratio_oracle(d1, d2, indel),
    )


def preprocess_oracle(text: str) -> str:
    lowered = text.lower()
    spaced = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return " ".join(spaced.split())


def per_class_oracle(predictions: list[bool], golds: list[bool]) -> dict[bool, dict]:
    """Per class, keyed by the class's verdict: tp, fp and fn from an explicit
    confusion dict, then precision, recall and f1 from those."""
    matrix = {(p, g): 0 for p in (True, False) for g in (True, False)}
    for predicted, gold in zip(predictions, golds):
        matrix[(predicted, gold)] += 1
    classes = {}
    for positive in (True, False):
        tp = matrix[(positive, positive)]
        fp = matrix[(positive, not positive)]
        fn = matrix[(not positive, positive)]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        classes[positive] = {
            "tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall, "f1": f1,
        }
    return classes


def macro_f1_oracle(predictions: list[bool], golds: list[bool]) -> float:
    """Macro-F1 over the two classes from an explicit confusion dict."""
    classes = per_class_oracle(predictions, golds)
    return 100.0 * sum(classes[positive]["f1"] for positive in (True, False)) / 2.0
