"""Independent straight-line reference implementations.

These are deliberately separate from the package: plain loops and exact
arithmetic, no shared code with the implementations they check. Expected
values frozen into the tests were produced by these functions before the
package existed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40


# --- high-precision metric formulas -------------------------------------------


def hp_minkowski(x, y, p) -> float:
    """(sum |xi-yi|^p)^(1/p) with exact sums where possible."""
    if float(p) == int(p):
        s = sum(Fraction(abs(Fraction(a) - Fraction(b))) ** int(p) for a, b in zip(x, y))
        return float(mpmath.power(mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator), 1 / mpmath.mpf(p)))
    total = mpmath.mpf(0)
    for a, b in zip(x, y):
        total += mpmath.power(abs(mpmath.mpf(a) - mpmath.mpf(b)), p)
    return float(mpmath.power(total, 1 / mpmath.mpf(p)))


def hp_euclidean(x, y) -> float:
    return hp_minkowski(x, y, 2)


def hp_manhattan(x, y) -> float:
    s = sum(abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y))
    return float(mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator))


def hp_chebyshev(x, y) -> float:
    return float(max(abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y)))


def hp_cosine(x, y) -> float:
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
    nx = sum(Fraction(a) ** 2 for a in x)
    ny = sum(Fraction(b) ** 2 for b in y)
    num = mpmath.mpf(dot.numerator) / mpmath.mpf(dot.denominator)
    den = mpmath.sqrt(mpmath.mpf(nx.numerator) / mpmath.mpf(nx.denominator)) * mpmath.sqrt(
        mpmath.mpf(ny.numerator) / mpmath.mpf(ny.denominator)
    )
    return float(num / den)


def hp_inner_product(x, y) -> float:
    s = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
    return float(mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator))


# --- brute-force retrieval -----------------------------------------------------


def cos(a, b) -> float:
    num = sum(p * q for p, q in zip(a, b))
    return num / (math.sqrt(sum(p * p for p in a)) * math.sqrt(sum(q * q for q in b)))


def plain_metric(a, b, kind, p=None) -> float:
    if kind == "cosine":
        return cos(a, b)
    if kind == "inner_product":
        return sum(x * y for x, y in zip(a, b))
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if kind == "manhattan":
        return sum(diffs)
    if kind == "euclidean":
        return math.sqrt(sum(d * d for d in diffs))
    if kind == "chebyshev":
        return max(diffs)
    return sum(d**p for d in diffs) ** (1.0 / p)


def signed(value, kind) -> float:
    return value if kind in ("cosine", "inner_product") else -value


def brute_force_top_k(items, query, k, kind, p=None):
    """items: list of (chunk_id, vector). Full sort, ties by chunk_id."""
    scored = [(cid, plain_metric(vec, query, kind, p)) for cid, vec in items]
    reverse = kind in ("cosine", "inner_product")
    scored.sort(key=lambda t: (-t[1] if reverse else t[1], t[0]))
    return scored[:k]


def brute_force_mmr(items, query, lam, k, fetch_n, sim1=("cosine", None), sim2=("cosine", None)):
    """Step-by-step greedy MMR: pool from brute-force top_k under sim1, then
    per-step argmax of lam*sim1 - (1-lam)*max sim2, empty-selection max = 0.
    Ties break toward the lowest chunk_id. Returns [(chunk_id, score), ...].
    """
    kind1, p1 = sim1
    kind2, p2 = sim2
    pool_ids = [cid for cid, _ in brute_force_top_k(items, query, fetch_n, kind1, p1)]
    vectors = dict(items)
    relevance = {cid: signed(plain_metric(vectors[cid], query, kind1, p1), kind1) for cid in pool_ids}

    selected: list[tuple[str, float]] = []
    remaining = list(pool_ids)
    while remaining and len(selected) < k:
        best_id, best_score = None, None
        for cid in sorted(remaining):
            if selected:
                penalty = max(
                    signed(plain_metric(vectors[cid], vectors[sid], kind2, p2), kind2)
                    for sid, _ in selected
                )
            else:
                penalty = 0.0
            score = lam * relevance[cid] - (1.0 - lam) * penalty
            if best_score is None or score > best_score:
                best_id, best_score = cid, score
        selected.append((best_id, best_score))
        remaining.remove(best_id)
    return selected


# --- straight-line splitter walk ---------------------------------------------------


def reference_split_spans(body, chunk_size, overlap, separators):
    """Greedy recursive splitting, written as a direct walk of the rules."""

    def split_pieces(start, end, sep):
        if sep == "":
            return [(i, i + 1) for i in range(start, end)]
        pieces = []
        i = start
        while i <= end:
            j = body.find(sep, i, end)
            if j == -1:
                if i < end:
                    pieces.append((i, end))
                break
            if j > i:
                pieces.append((i, j))
            i = j + len(sep)
        return pieces

    def merge(pieces, sep_len):
        def span_len(ps):
            if not ps:
                return 0
            return sum(b - a for a, b in ps) + sep_len * (len(ps) - 1)

        chunks = []
        cur = []
        for piece in pieces:
            plen = piece[1] - piece[0]
            if cur and span_len(cur) + plen + sep_len > chunk_size:
                chunks.append((cur[0][0], cur[-1][1]))
                while cur and (
                    span_len(cur) > overlap
                    or (span_len(cur) + plen + sep_len > chunk_size and span_len(cur) > 0)
                ):
                    cur.pop(0)
            cur.append(piece)
        if cur:
            chunks.append((cur[0][0], cur[-1][1]))
        return chunks

    def recurse(start, end, seps):
        if end - start <= chunk_size:
            return [(start, end)]
        segment = body[start:end]
        sep, rest = "", []
        for i, candidate in enumerate(seps):
            if candidate == "" or candidate in segment:
                sep, rest = candidate, list(seps[i + 1 :])
                break
        out, good = [], []
        for piece in split_pieces(start, end, sep):
            if piece[1] - piece[0] <= chunk_size:
                good.append(piece)
                continue
            if good:
                out.extend(merge(good, len(sep)))
                good = []
            if rest:
                out.extend(recurse(piece[0], piece[1], rest))
            else:
                out.append(piece)
        if good:
            out.extend(merge(good, len(sep)))
        return out

    if not body:
        return []
    return recurse(0, len(body), list(separators))


# --- brute-force cluster statistics -------------------------------------------------


def brute_force_cluster_stats(labeled_vectors, kind="euclidean", p=None):
    """labeled_vectors: dict label -> list of vectors. Plain-loop means and
    distances; cosine maps to 1 - cos."""

    def dist(a, b):
        value = plain_metric(a, b, kind, p)
        return 1.0 - value if kind == "cosine" else value

    centroids = {}
    stats = {}
    for label, vectors in labeled_vectors.items():
        dim = len(vectors[0])
        centroid = [sum(v[i] for v in vectors) / len(vectors) for i in range(dim)]
        centroids[label] = centroid
        intra = [dist(v, centroid) for v in vectors]
        stats[label] = {
            "count": len(vectors),
            "centroid": centroid,
            "mean_intra_distance": sum(intra) / len(intra),
        }
    labels = sorted(labeled_vectors)
    matrix = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            matrix[(a, b)] = dist(centroids[a], centroids[b])
    return stats, matrix


# --- per-document citation material -------------------------------------------------


def per_document_citations(documents, records):
    """Citation list and unresolved markers of ``records`` (retrieval order),
    recomputed from scratch for each document: parse its reference section,
    extract markers from each record's expanded chunk with duplicates
    dropped across the document, resolve them, and concatenate the documents
    in first-appearance order. ``documents`` maps doc_id to Document."""
    from litrag.citations import (
        AuxIndex,
        extract_citation_markers,
        extract_reference_section,
        locate_expanded_chunk,
        resolve_citations,
        split_expanded_chunks,
    )
    from litrag.errors import NoReferenceSection

    by_doc = {}
    for rec in records:
        by_doc.setdefault(rec.doc_id, []).append(rec)
    citation_list, unresolved, seen_entries = [], [], set()
    for doc_id, recs in by_doc.items():
        doc = documents[doc_id]
        aux = AuxIndex(doc_id=doc_id, expanded_chunks=tuple(split_expanded_chunks(doc)))
        markers, seen = [], set()
        for rec in recs:
            for marker in extract_citation_markers(locate_expanded_chunk(aux, rec).text):
                if marker.key() not in seen:
                    seen.add(marker.key())
                    markers.append(marker)
        try:
            entries = extract_reference_section(doc)
        except NoReferenceSection:
            entries = []
        resolved, missing = resolve_citations(markers, entries)
        for entry in resolved:
            if (entry.doc_id, entry.label, entry.full_text) not in seen_entries:
                seen_entries.add((entry.doc_id, entry.label, entry.full_text))
                citation_list.append(entry)
        unresolved.extend(missing)
    return citation_list, unresolved
