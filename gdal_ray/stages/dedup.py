"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard — the large-scale training-data cleaning suite.

Shapes (all Ray-Data-first, guide patterns):
- exact:    content hash in map_batches → groupby(hash) → min(id)
- MinHash:  shingle → 128 minhashes per doc (vectorized per row via a
  rolling polynomial hash + outer-min) → explode to (band, band_hash,
  doc_id) rows → groupby bucket → candidate pairs → Jaccard verify →
  connected components by iterated min-label propagation (a few
  groupby rounds — no driver-side union-find on big data)
- SimHash:  64-bit token-weighted fingerprint; near-dup candidates
  share a 16-bit band (4 bands → Hamming ≤ 3 guaranteed recall by
  pigeonhole when distance < 4)

Determinism: all hash seeds are fixed constants; results are stable
across runs and parallelism levels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.stages.partition import join_partitions, map_keys, map_partitions

# 64-bit FNV-style rolling polynomial base/mod (fixed seeds)
_P = np.uint64(1099511628211)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
N_PERM = 128
N_BANDS = 16  # 16 bands x 8 rows
_MERSENNE = np.uint64((1 << 61) - 1)

_rng = np.random.default_rng(42)
_A = _rng.integers(1, (1 << 61) - 1, N_PERM, dtype=np.uint64)
_B = _rng.integers(0, (1 << 61) - 1, N_PERM, dtype=np.uint64)


def char_shingle_hashes(text: str, k: int = 4) -> np.ndarray:
    """Distinct k-gram rolling hashes of one text (vectorized via
    sliding windows over the byte array)."""
    raw = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
    if len(raw) < k:
        raw = np.pad(raw, (0, k - len(raw)), constant_values=32)
    win = np.lib.stride_tricks.sliding_window_view(raw, k).astype(np.uint64)
    pw = _P ** np.arange(k, dtype=np.uint64)
    h = (win * pw[None, :]).sum(axis=1, dtype=np.uint64)
    return np.unique(h)


def minhash_signature(shingle_hashes: np.ndarray) -> np.ndarray:
    """128 minhashes: min over shingles of (a·h + b) mod M61."""
    if len(shingle_hashes) == 0:
        return np.full(N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    # (S, P) product mod 2^64 is fine for min-stability as a PRF
    hp = (shingle_hashes[:, None] * _A[None, :] + _B[None, :]) & _MASK
    hp %= _MERSENNE
    return hp.min(axis=0)


def band_hashes(sig: np.ndarray) -> np.ndarray:
    """Signature (128,) → (16,) band bucket hashes."""
    rows = N_PERM // N_BANDS
    b = sig.reshape(N_BANDS, rows)
    out = np.zeros(N_BANDS, dtype=np.uint64)
    for i in range(rows):
        out = (out * _P + b[:, i]) & _MASK
    return out


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


def _window_hashes(text: str, k: int) -> np.ndarray:
    """All k-gram rolling hashes of one text (non-distinct; short texts
    padded with spaces to one window)."""
    raw = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
    if len(raw) < k:
        raw = np.pad(raw, (0, k - len(raw)), constant_values=32)
    win = np.lib.stride_tricks.sliding_window_view(raw, k).astype(np.uint64)
    pw = _P ** np.arange(k, dtype=np.uint64)
    return (win * pw[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64(text: str, k: int = 4) -> int:
    """64-bit term-frequency-weighted SimHash (Charikar 2002; weights =
    k-gram occurrence counts, the Manku et al. 2007 web-dedup variant).
    Weighted rather than distinct-shingle so the batched kernel needs
    no per-doc dedup sort — a duplicate k-gram just votes twice."""
    h = _window_hashes(text, k)
    if len(h) == 0:
        return 0
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash64_batch(texts, k: int = 4) -> np.ndarray:
    """Vectorized SimHash of a whole column, bit-identical to
    ``simhash64`` per row (parity pinned in tests/test_dedup_embed.py):
    one concatenated byte buffer, one sliding-window hash pass, then
    per-doc per-bit counts via PACKED BYTE COUNTERS — ``(h >> j) &
    0x0101..01`` puts bit ``8b+j`` of each hash into byte ``b``, so one
    uint64 segment-sum accumulates 8 bit-counters at once (8 reduceats
    total instead of 64), as long as every segment is < 256 rows (docs
    are split into <=255-window sub-segments first)."""
    n = len(texts)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    bufs = []
    lens = np.empty(n, dtype=np.int64)
    pad = b" " * k
    for i, t in enumerate(texts):
        b = (t or "").encode("utf-8", "ignore")
        if len(b) < k:
            b = b + pad[: k - len(b)]
        bufs.append(b)
        lens[i] = len(b)
    raw = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    # rolling hash without the (M, k) window matrix: k shifted passes
    nwin = len(raw) - k + 1
    base = raw.astype(np.uint64)
    h = base[:nwin] * (_P ** np.uint64(0))
    for j in range(1, k):
        h += base[j : j + nwin] * (_P ** np.uint64(j))
    # windows per doc (every doc contributes lens-k+1 valid windows;
    # the k-1 windows straddling each boundary are dropped below)
    wcnt = lens - (k - 1)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    # gather only in-doc windows: global window index = doc start + off
    doc_w_start = starts  # window at byte p starts at index p
    # sub-segments of <=255 windows so packed byte counters can't carry
    nsub = (wcnt + 254) // 255
    total_sub = int(nsub.sum())
    sub_doc = np.repeat(np.arange(n, dtype=np.int64), nsub)
    sub_first = np.concatenate(([0], np.cumsum(nsub)[:-1]))
    within = np.arange(total_sub, dtype=np.int64) - sub_first[sub_doc]
    sub_start = doc_w_start[sub_doc] + within * 255
    sub_len = np.minimum(wcnt[sub_doc] - within * 255, 255)
    # compact h to valid windows only, keeping sub-segment boundaries
    # contiguous: build the gather index once
    doc_valid_start = np.concatenate(([0], np.cumsum(wcnt)[:-1]))
    gidx = (
        np.repeat(doc_w_start - doc_valid_start, wcnt)
        + np.arange(int(wcnt.sum()), dtype=np.int64)
    )
    hv = h[gidx]
    csub_start = np.concatenate(([0], np.cumsum(sub_len)[:-1]))
    ones = np.zeros((n, 64), dtype=np.int64)
    m01 = np.uint64(0x0101010101010101)
    for j in range(8):
        packed = np.add.reduceat((hv >> np.uint64(j)) & m01, csub_start)
        bytes_ = packed.view(np.uint8).reshape(total_sub, 8)
        if not np.little_endian:  # big-endian byte order flips
            bytes_ = bytes_[:, ::-1]
        for b in range(8):
            ones[:, 8 * b + j] += np.bincount(
                sub_doc, weights=bytes_[:, b].astype(np.float64), minlength=n
            ).astype(np.int64)
    v = 2 * ones - wcnt[:, None]
    return ((v > 0).astype(np.uint64)
            << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)


# ---------------------------------------------------------------------------
# Dataset-level operators


def add_minhash(ds, text_col: str = "text", id_col: str = "doc_id", k: int = 4):
    """→ (id, band_id, band_hash) rows: the LSH shuffle input."""

    def sig(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        n = len(texts)
        # per-doc shingle hashing is variable-length (the one loop that
        # must stay); the band explode below is pure numpy repeat/tile
        bh = np.empty((n, N_BANDS), dtype=np.uint64)
        for i, t in enumerate(texts):
            bh[i] = band_hashes(minhash_signature(char_shingle_hashes(t or "", k)))
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, N_BANDS)),
                "band_id": pa.array(
                    np.tile(np.arange(N_BANDS, dtype=np.int32), n)
                ),
                "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
            }
        )

    return ds.map_batches(sig, batch_format="pyarrow")


def minhash_candidate_pairs(
    ds, text_col="text", id_col="doc_id", k: int = 4,
    max_bucket_pairs: int = 64,
):
    """LSH candidate pairs: groupby (band_id, band_hash) → pairs within
    a bucket (deduplicated, a<b).

    Degenerate-bucket cap: a single boilerplate/empty-text bucket of
    10^6 docs would emit 5*10^11 all-pairs.  Buckets larger than
    ``max_bucket_pairs`` emit only STAR pairs (min_id, other) — O(n)
    pairs that keep the bucket fully connected at graph diameter 2, so
    the connected-components min-label propagation still converges in
    a couple of rounds (a chain would need O(n) rounds); every
    production MinHash pipeline bounds bucket cost this way."""
    bands = add_minhash(ds, text_col, id_col, k)

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.sort(np.unique(group[id_col].to_numpy(zero_copy_only=False)))
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        if len(ids) > max_bucket_pairs:
            return pa.table(
                {"a": pa.array(np.full(len(ids) - 1, ids[0])),
                 "b": pa.array(ids[1:])}
            )
        ai, bi = np.triu_indices(len(ids), k=1)
        return pa.table({"a": pa.array(ids[ai]), "b": pa.array(ids[bi])})

    cand = map_keys(bands, ["band_id", "band_hash"], pairs)
    # dedupe pairs found in multiple bands
    from ray.data.aggregate import Count

    return cand.groupby(["a", "b"]).aggregate(Count(alias_name="n_bands"))


def near_duplicates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 4,
    threshold: float = 0.8,
):
    """Verified near-duplicate pairs: LSH candidates → exact n-gram
    Jaccard ≥ threshold.

    The verification texts arrive via DISTRIBUTED hash joins
    (``join_partitions``) on the candidate ids (candidates ⋈ texts on
    a, then on b) — nothing is materialized on the driver, so the
    corpus side streams at any scale; the candidate set (already
    deduped across bands) is the only shuffled pair table."""
    cand = minhash_candidate_pairs(ds, text_col, id_col, k)
    texts = ds.select_columns([id_col, text_col])
    ta = texts.rename_columns({id_col: "a", text_col: "text_a"})
    tb = texts.rename_columns({id_col: "b", text_col: "text_b"})
    cand = join_partitions(cand, ta, "a")
    cand = join_partitions(cand, tb, "b")

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_pylist()
        b = batch["b"].to_pylist()
        tx_a = batch["text_a"].to_pylist()
        tx_b = batch["text_b"].to_pylist()
        keep_a, keep_b, jac = [], [], []
        cache: dict = {}

        def sh(i, t):
            s = cache.get(i)
            if s is None:
                s = cache[i] = char_shingle_hashes(t or "", k)
            return s

        for x, y, txa, txb in zip(a, b, tx_a, tx_b):
            j = jaccard(sh(x, txa), sh(y, txb))
            if j >= threshold:
                keep_a.append(x)
                keep_b.append(y)
                jac.append(j)
        return pa.table(
            {"a": pa.array(keep_a, pa.int64()), "b": pa.array(keep_b, pa.int64()),
             "jaccard": pa.array(jac, pa.float64())}
        )

    return cand.map_batches(verify, batch_format="pyarrow")


def jaccard_ngram_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 4,
    threshold: float = 0.5,
):
    """EXACT all-pairs distinct-k-gram Jaccard via a distributed
    inverted gram index — the classic set-similarity-join shape
    (gram → posting list → co-grouped pair counting), no minhash
    approximation anywhere, so any threshold is exact (LSH recall at
    the boundary is probabilistic by design; this operator has no
    such caveat).  Reference role: the GNM fuzzy string matching the
    reference exposes through SQLITE_HAS_SPELLFIX (ogrsqlitevfs role)
    — re-expressed as a corpus-scale pair join.

    Three stages, the last two on coarse hash partitions
    (``stages.partition.map_partitions``):

    1. ``map_batches``: per-doc distinct gram hashes (vectorized
       sliding-window rolling hash) flattened to (gram, doc, size)
       postings.
    2. one vectorized pair expansion per gram partition: lexsort by
       (gram, doc), run-length boundaries, triu-index expansion —
       emits (a, b, sa, sb) with a < b by construction.
    3. one vectorized combine per (a, b) partition: rows per (a, b) =
       |grams(a) ∩ grams(b)|; Jaccard = ix / (sa + sb - ix); filter.

    Scale contract: exact all-pairs is inherently O(Σ_g df(g)²) pair
    rows — hot grams (stopword shingles) dominate.  This is the
    algorithm's cost, not an implementation artifact; at web scale
    use ``near_duplicates`` (MinHash-LSH) and reserve this operator
    for exact audits / oracle-grade comparisons on bounded corpora."""

    def postings(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        texts = t[text_col].to_pylist()
        grams, docs, sizes = [], [], []
        for i, tx in zip(ids, texts):
            h = char_shingle_hashes(tx or "", k)
            grams.append(h)
            docs.append(np.full(len(h), i, np.int64))
            sizes.append(np.full(len(h), len(h), np.int64))
        g = np.concatenate(grams) if grams else np.empty(0, np.uint64)
        d = np.concatenate(docs) if docs else np.empty(0, np.int64)
        s = np.concatenate(sizes) if sizes else np.empty(0, np.int64)
        return pa.table({
            "g": pa.array(g.astype(np.int64)),  # arrow-friendly view
            "d": pa.array(d), "s": pa.array(s),
        })

    posts = ds.map_batches(postings, batch_format="pyarrow")

    def expand(t: pa.Table) -> pa.Table:
        g = t["g"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        s = t["s"].to_numpy(zero_copy_only=False)
        if len(g) == 0:
            return pa.table({
                "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                "sa": pa.array([], pa.int64()), "sb": pa.array([], pa.int64()),
            })
        order = np.lexsort((d, g))
        g, d, s = g[order], d[order], s[order]
        n = len(g)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        lens = np.diff(np.r_[starts, n])
        ends = np.repeat(starts + lens, lens)  # run end per element
        idx = np.arange(n)
        rep = ends - idx - 1  # pairs led by each element
        a_idx = np.repeat(idx, rep)
        cum = np.concatenate(([0], np.cumsum(rep)))
        off = np.arange(int(cum[-1])) - np.repeat(cum[:-1], rep)
        b_idx = a_idx + 1 + off
        a, b = d[a_idx], d[b_idx]  # a < b: sorted by (g, d), distinct
        return pa.table({
            "a": pa.array(a), "b": pa.array(b),
            "sa": pa.array(s[a_idx]), "sb": pa.array(s[b_idx]),
        })

    pairs = map_partitions(posts, "g", expand, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        sa = t["sa"].to_numpy(zero_copy_only=False)
        sb = t["sb"].to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return pa.table({
                "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            })
        order = np.lexsort((b, a))
        a, b, sa, sb = a[order], b[order], sa[order], sb[order]
        new = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        starts = np.flatnonzero(new)
        ix = np.diff(np.r_[starts, len(a)])  # rows per pair = |∩|
        a0, b0, sa0, sb0 = a[starts], b[starts], sa[starts], sb[starts]
        jac = ix / (sa0 + sb0 - ix)
        keep = jac >= threshold
        return pa.table({
            "a": pa.array(a0[keep]), "b": pa.array(b0[keep]),
            "jaccard": pa.array(jac[keep], pa.float64()),
        })

    return map_partitions(pairs, ["a", "b"], combine,
                          batch_format="pyarrow")


def connected_components(pairs_ds, max_iters: int = 10):
    """Min-label propagation over verified pairs → (id, component)
    rows. Each round: label[x] = min(label of all neighbors ∪ self);
    converges in O(diameter) groupby rounds (guide pattern —
    driver-side union-find avoided).

    Convergence is detected distributively: labels only ever decrease,
    so the scalar SUM(label) strictly decreases until the fixed point
    — one tiny aggregate per round, never a driver materialization of
    the label table."""
    from ray.data.aggregate import Min, Sum

    # edges both directions + self loops
    def expand(batch: pa.Table) -> pa.Table:
        a = batch["a"]
        b = batch["b"]
        return pa.table(
            {
                "node": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a,
                                           b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b]),
                "peer": pa.concat_arrays([b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b,
                                           a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a]),
            }
        )

    edges = pairs_ds.select_columns(["a", "b"]).map_batches(
        expand, batch_format="pyarrow"
    ).materialize()
    # initial label = own id
    labels = edges.groupby("node").aggregate(Min("peer", alias_name="minpeer"))

    def init(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        mp = batch["minpeer"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(node), "label": pa.array(np.minimum(node, mp))})

    labels = labels.map_batches(init, batch_format="pyarrow").materialize()
    prev_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
    for _ in range(max_iters):
        # propagate: node's label -> peers
        joined = join_partitions(edges, labels, "node")
        prop = joined.select_columns(["peer", "label"]).map_batches(
            lambda t: t.rename_columns(["node", "label"]), batch_format="pyarrow"
        )
        both = labels.union(prop)
        new_labels = both.groupby("node").aggregate(
            Min("label", alias_name="label")
        ).materialize()
        labels = new_labels
        # fixed point: labels decrease monotonically, so an unchanged
        # scalar sum == converged (one-row aggregate, not a label dump)
        cur = new_labels.aggregate(Sum("label", alias_name="s"))["s"]
        if prev_sum is not None and cur == prev_sum:
            break
        prev_sum = cur
    return labels


def dedup_paragraphs(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Cross-document paragraph-level exact dedup (the C4/CCNet
    recipe: a paragraph repeated anywhere in the corpus survives only
    at its FIRST occurrence, ordered by (doc id, paragraph index);
    empty paragraphs always survive — they are structure, not
    content; a document whose every paragraph is removed drops out of
    the corpus; a null text is one empty paragraph).

    Shape: Arrow-native explode to (id, idx, paragraph) → partitions
    on the paragraph text keep each paragraph's minimal (id, idx) →
    partitions on the id reassemble the survivors in order. Two
    ``stages.partition`` shuffles, one vectorized pandas pass per
    partition, no driver-side state; the paragraph text rides both
    shuffles (at corpus scale, shuffle a fingerprint + ids only and
    rejoin against the exploded table to halve the exchange)."""
    import pandas as pd
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        pars = pc.split_pattern(pc.fill_null(text, ""), "\n")
        parent = pc.list_parent_indices(pars).to_numpy()
        starts = pars.offsets.to_numpy() - pars.offsets[0].as_py()
        return pa.table({
            id_col: t[id_col].take(parent),
            "__idx": np.arange(len(parent)) - starts[parent],
            "__par": pc.list_flatten(pars),
        })

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "__idx"], kind="mergesort")
        return g[(g["__par"] == "") | ~g["__par"].duplicated()]

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "__idx"], kind="mergesort")
        return g.groupby(id_col, sort=False)["__par"].agg("\n".join) \
            .reset_index().rename(columns={"__par": text_col})

    pars = ds.map_batches(explode, batch_format="pyarrow")
    winners = map_partitions(pars, "__par", keep_first)
    return map_partitions(winners, id_col, reassemble)
