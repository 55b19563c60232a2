"""Text analysis stages: language ID, quality scoring, fingerprints.

All vectorized through pyarrow C++ kernels where possible; the
language heuristic uses stopword hit-rates per language (an n-gram /
lexicon heuristic — deterministic, offline).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# tiny deterministic stopword lexicons (top function words)
STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "for", "with"],
    "es": ["el", "la", "de", "que", "y", "en", "los", "del", "por"],
    "de": ["der", "die", "und", "das", "ist", "von", "mit", "den", "für"],
    "fr": ["le", "la", "et", "les", "des", "un", "une", "est", "dans"],
    "pt": ["o", "a", "de", "que", "e", "do", "da", "em", "um"],
}


class LanguageID:
    """Stateful stage (``stages.cache.worker_cached``): per-language
    stopword-hit scoring, vectorized with one Arrow regex count per
    language (patterns compiled once in __init__)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.patterns = {
            lang: r"(?i)\b(" + "|".join(ws) + r")\b"
            for lang, ws in STOPWORDS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch[self.text_col]
        n = len(txt)
        scores = np.zeros((len(self.patterns), n), dtype=np.float64)
        langs = list(self.patterns)
        for i, lang in enumerate(langs):
            c = pc.count_substring_regex(txt, self.patterns[lang])
            scores[i] = c.to_numpy(zero_copy_only=False).astype(np.float64)
        best = scores.argmax(axis=0)
        hit = scores.max(axis=0)
        lang_arr = np.array(langs, dtype=object)[best]
        lang_arr[hit == 0] = "und"
        return batch.append_column(
            "lang_pred", pa.array(lang_arr, pa.string())
        ).append_column("lang_score", pa.array(hit))


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality features + a [0,1] score: length, mean word
    length, punctuation/digit/upper ratios, stop ratio (C4/Gopher-rule
    style, deterministic)."""
    txt = batch[text_col]
    n_chars = pc.cast(pc.utf8_length(txt), pa.float64()).to_numpy(
        zero_copy_only=False
    )
    n_tokens = pc.cast(
        pc.count_substring_regex(txt, r"[^\s]+"), pa.float64()
    ).to_numpy(zero_copy_only=False)
    n_punct = pc.cast(
        pc.count_substring_regex(txt, r"[\.,;:!\?]"), pa.float64()
    ).to_numpy(zero_copy_only=False)
    n_digit = pc.cast(
        pc.count_substring_regex(txt, r"[0-9]"), pa.float64()
    ).to_numpy(zero_copy_only=False)
    n_stop = pc.cast(
        pc.count_substring_regex(txt, r"(?i)\b(the|and|of|to|in|a|is)\b"),
        pa.float64(),
    ).to_numpy(zero_copy_only=False)
    safe_chars = np.maximum(n_chars, 1.0)
    safe_tokens = np.maximum(n_tokens, 1.0)
    mean_word_len = safe_chars / safe_tokens
    punct_ratio = n_punct / safe_chars
    digit_ratio = n_digit / safe_chars
    stop_ratio = n_stop / safe_tokens
    score = (
        np.clip(n_tokens / 20.0, 0, 1) * 0.3
        + np.clip(1.0 - digit_ratio * 5.0, 0, 1) * 0.2
        + np.clip(stop_ratio * 4.0, 0, 1) * 0.3
        + np.clip(1.0 - np.abs(mean_word_len - 5.0) / 5.0, 0, 1) * 0.2
    )
    for name, arr in (
        ("n_chars", n_chars.astype(np.int64)),
        ("n_tokens", n_tokens.astype(np.int64)),
        ("mean_word_len", mean_word_len),
        ("punct_ratio", punct_ratio),
        ("digit_ratio", digit_ratio),
        ("stop_ratio", stop_ratio),
        ("quality", score),
    ):
        batch = batch.append_column(name, pa.array(arr))
    return batch


def fingerprint64(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic 64-bit document fingerprint: polynomial rolling
    hash of the full text bytes (content-addressing / exact-dedup key
    without shipping the text into the shuffle).

    Fully vectorized: one segmented Horner-closed-form pass over the
    column's flat UTF-8 buffer (no per-row Python loop) —
        h = OFF*P^n + sum raw[j] * P^(n-1-j)   (mod 2^64).
    """
    P = np.uint64(1099511628211)
    OFF = np.uint64(14695981039346656037)
    col = batch[text_col].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks else pa.array([], pa.string())
    col = col.fill_null("")
    arr = col.cast(pa.large_string())
    offsets = arr.buffers()[1]
    data = arr.buffers()[2]
    offs = np.frombuffer(offsets, dtype=np.int64, count=len(arr) + 1)
    flat = (
        np.frombuffer(data, dtype=np.uint8, count=int(offs[-1]))
        if data is not None and offs[-1] > 0
        else np.zeros(0, dtype=np.uint8)
    )
    starts = offs[:-1]
    ends = offs[1:]
    lens = ends - starts
    maxlen = int(lens.max()) if len(lens) else 0
    with np.errstate(over="ignore"):
        powers = np.ones(maxlen + 1, dtype=np.uint64)
        if maxlen:
            powers[1:] = np.cumprod(np.full(maxlen, P, dtype=np.uint64))
        # exponent of each flat byte: (end_of_its_doc - 1 - index)
        end_per_byte = np.repeat(ends, lens)
        exp = end_per_byte - 1 - np.arange(len(flat), dtype=np.int64)
        contrib = flat.astype(np.uint64) * powers[exp]
        # segmented sums via cumsum difference: exact under mod-2^64
        # wrap-around, and empty segments fall out as zero
        csum = np.zeros(len(flat) + 1, dtype=np.uint64)
        np.cumsum(contrib, out=csum[1:])
        sums = csum[ends] - csum[starts]
        out = OFF * powers[lens] + sums
    return batch.append_column(
        "fingerprint", pa.array(out.astype(np.int64))
    )


# PII patterns (training-data scrub): email, phone-like, IPv4 —
# deliberately conservative (precision over recall), all Arrow C++ RE2
PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\+?\d{1,2}[-. ]?\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}", "<PHONE>"),
    ("ipv4", r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
]


def scrub_pii(batch: pa.Table, text_col: str = "text",
              out_col: str | None = None) -> pa.Table:
    """Replace common PII shapes with typed placeholder tokens — the
    standard pre-training scrub pass. Vectorized RE2 substitution via
    pyarrow (no Python rows); appends ``<col>_scrubbed`` (or
    ``out_col``) plus per-kind match counts."""
    col = batch[text_col]
    out = col
    counts = {}
    for name, pat, repl in PII_PATTERNS:
        counts[f"n_{name}"] = pc.cast(
            pc.count_substring_regex(out, pat), pa.int64()
        )
        out = pc.replace_substring_regex(out, pat, repl)
    batch = batch.append_column(out_col or f"{text_col}_scrubbed", out)
    for k, v in counts.items():
        batch = batch.append_column(k, v)
    return batch


def canonical_url(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """URL canonicalization for URL-level dedup: lowercase scheme+host,
    strip the query string, fragment and trailing slash. Appends
    ``url_canon`` (vectorized RE2)."""
    u = batch[url_col]
    # strip fragment, then query
    u = pc.replace_substring_regex(u, r"#.*$", "")
    u = pc.replace_substring_regex(u, r"\?.*$", "")
    # lowercase scheme://host part only
    host = pc.extract_regex(u, r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*://[^/]*)")
    scheme_host = pc.struct_field(host, "scheme")
    rest = pc.replace_substring_regex(
        u, r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*", ""
    )
    lowered = pc.utf8_lower(pc.coalesce(scheme_host, pa.scalar("")))
    joined = pc.binary_join_element_wise(lowered, pc.coalesce(rest, u), "")
    joined = pc.replace_substring_regex(joined, r"/$", "")
    return batch.append_column("url_canon", joined)


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1, the
    public MassiveText filtering recipe): per document,

    - ``dup_line_frac``      — fraction of lines that are duplicates
      of an earlier line,
    - ``dup_line_char_frac`` — fraction of characters in those
      duplicated lines,
    - ``top2gram_frac``      — fraction of characters covered by the
      most frequent word 2-gram,
    - ``dup5gram_frac``      — fraction of characters covered by word
      5-grams occurring more than once.

    High values mark boilerplate/spam; MassiveText drops docs at
    dup_line_frac > 0.30, top2gram_frac > 0.20, dup5gram_frac > 0.15.
    Tokenization is whitespace (matching the engine's token counter).
    Per-document loop is inherent (ragged token lists); the inner
    counting is numpy/dict-based, no regex per n-gram.
    """
    texts = batch[text_col].to_pylist()
    dl, dlc, t2, d5 = [], [], [], []
    for t in texts:
        t = t or ""
        lines = t.split("\n")
        seen: set = set()
        dup_n = 0
        dup_chars = 0
        for ln in lines:
            if ln in seen:
                dup_n += 1
                dup_chars += len(ln)
            else:
                seen.add(ln)
        dl.append(dup_n / len(lines))
        dlc.append(dup_chars / max(1, len(t)))
        words = t.split()
        nchars = max(1, sum(len(w) for w in words))
        # top word-2-gram coverage
        if len(words) >= 2:
            counts: dict = {}
            for i in range(len(words) - 1):
                g = (words[i], words[i + 1])
                counts[g] = counts.get(g, 0) + 1
            g, c = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
            t2.append(c * (len(g[0]) + len(g[1])) / nchars)
        else:
            t2.append(0.0)
        # chars inside word-5-grams that occur >1 time (each position
        # counted once, Gopher's "fraction of characters contained in
        # duplicated n-grams")
        if len(words) >= 5:
            counts5: dict = {}
            for i in range(len(words) - 4):
                g = tuple(words[i : i + 5])
                counts5[g] = counts5.get(g, 0) + 1
            covered = np.zeros(len(words), dtype=bool)
            for i in range(len(words) - 4):
                if counts5[tuple(words[i : i + 5])] > 1:
                    covered[i : i + 5] = True
            d5.append(
                sum(len(w) for w, c in zip(words, covered) if c) / nchars
            )
        else:
            d5.append(0.0)
    return batch.append_column(
        "dup_line_frac", pa.array(dl, pa.float64())
    ).append_column(
        "dup_line_char_frac", pa.array(dlc, pa.float64())
    ).append_column(
        "top2gram_frac", pa.array(t2, pa.float64())
    ).append_column(
        "dup5gram_frac", pa.array(d5, pa.float64())
    )
