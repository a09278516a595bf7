"""The report labeler's first form: every lexicon phrase searched in every sentence.

`datapipe.label_report` walks each sentence once against the lexicon's
first-token index. This module keeps the original scan, which tokenizes the
lexicon on every call and searches each phrase on its own, with the same
verdict rule. Tests use it as the oracle that the one-pass labeler must
agree with on every input.
"""

import re

from glre.datapipe import (BLANK, NEGATIVE, PATHOLOGIES, POSITIVE, UNCERTAIN, LabelVector,
                           tokenize)


def split_sentences(text: str) -> list[str]:
    """Split on period, semicolon, or colon; drop empty pieces."""
    return [p for p in re.split(r"[.;:]", text) if p.strip()]


def find_subsequences(haystack: list[str], needle: list[str]) -> list[int]:
    """Start indices of every contiguous occurrence of needle in haystack."""
    n = len(needle)
    if n == 0 or n > len(haystack):
        return []
    return [i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle]


def label_report(text: str, lexicon) -> LabelVector:
    mention_tokens = {
        name: [tokenize(p) for p in phrases] for name, phrases in lexicon.mentions.items()
    }
    neg_tokens = [tokenize(c) for c in lexicon.negations]
    unc_tokens = [tokenize(c) for c in lexicon.uncertainties]

    # cross-sentence precedence, higher wins
    rank = {POSITIVE: 3, UNCERTAIN: 2, NEGATIVE: 1, BLANK: 0}
    best: dict[str, object] = {name: BLANK for name in PATHOLOGIES}

    for sentence in split_sentences(text):
        toks = tokenize(sentence)
        if not toks:
            continue
        uncertain_here = any(find_subsequences(toks, cue) for cue in unc_tokens)
        neg_ends = sorted(
            start + len(cue)
            for cue in neg_tokens
            for start in find_subsequences(toks, cue)
        )
        for name in PATHOLOGIES:
            for phrase in mention_tokens[name]:
                for start in find_subsequences(toks, phrase):
                    if uncertain_here:
                        verdict = UNCERTAIN
                    elif any(0 <= start - end <= lexicon.negation_window
                             for end in neg_ends):
                        verdict = NEGATIVE
                    else:
                        verdict = POSITIVE
                    if rank[verdict] > rank[best[name]]:
                        best[name] = verdict
    return LabelVector(tuple(best[name] for name in PATHOLOGIES))
