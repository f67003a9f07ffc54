"""Independent computations the benchmark checks litrag's outputs against.

None of them imports litrag: retrieval is recomputed in numpy float64 from
vectors the benchmark makes itself, chunk spans by a separate walk of the
splitting rules, and cluster statistics from the stored vectors.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9  # objective values this close count as a tie either way
STATS_TOL = 1e-9  # absolute tolerance of cluster distances (float32 data, float64 sums)


class MMROracle:
    """Eq. 1 maximal marginal relevance in float64 over one store's rows.

    Row i of ``matrix`` is the vector of ``ids[i]``, as the store keeps it.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray):
        m = matrix.astype(np.float64)
        self.unit = m / np.linalg.norm(m, axis=1)[:, None]
        self.rank = np.empty(len(ids), dtype=np.int64)
        self.rank[np.argsort(np.array(ids), kind="stable")] = np.arange(len(ids))
        self.row_of = {cid: i for i, cid in enumerate(ids)}

    def check(self, selected: list[list], query: np.ndarray, lam: float, k: int,
              fetch_n: int, whole: bool) -> str | None:
        """Check a program's selection, [chunk_id, score] in order.

        The pool is the ``fetch_n`` best rows by cosine, ties to the lowest
        chunk_id. Rows whose cosine ties the pool's last one within TIE_TOL
        may fall on either side of the pool's edge: equal vectors give equal
        cosines, which float64 sums in another order can split by an ulp.
        Each step must pick a pool row whose objective
        lam*rel - (1-lam)*max cos(row, picked) is within TIE_TOL of the best
        row surely in the pool, and report that objective as its score.
        With ``whole`` the selection must have all k picks; otherwise it may
        be a prefix, since the chain sheds picks to fit its token budget.
        Returns a problem or None.
        """
        if not selected or len(selected) > k or (whole and len(selected) != k):
            return f"selected {len(selected)} chunks, expected {'exactly' if whole else 'at most'} {k}"
        unit = self.unit
        rel = unit @ (query / np.linalg.norm(query))
        order = np.lexsort((self.rank, -rel))
        edge = rel[order[min(fetch_n, len(order)) - 1]]
        sure = [r for r in order[:fetch_n] if rel[r] > edge + TIE_TOL]
        picked: list[int] = []
        for step, (cid, score) in enumerate(selected):
            row = self.row_of.get(cid)
            if row is None or row in picked:
                return f"step {step}: {cid} is unknown or picked twice"
            if rel[row] < edge - TIE_TOL:
                return f"step {step}: {cid} is outside the candidate pool"
            candidates = [r for r in sure if r not in picked]
            if picked:
                penalty = (unit[candidates] @ unit[picked].T).max(axis=1) if candidates else None
                own_penalty = float((unit[picked] @ unit[row]).max())
            else:
                penalty, own_penalty = np.zeros(len(candidates)), 0.0
            own = lam * rel[row] - (1.0 - lam) * own_penalty
            if candidates:
                best = float((lam * rel[candidates] - (1.0 - lam) * penalty).max())
                if own < best - TIE_TOL:
                    return f"step {step}: {cid} scores {own:.12f}, best candidate {best:.12f}"
            if abs(score - own) > TIE_TOL:
                return f"step {step}: {cid} reported score {score!r}, Eq. 1 gives {own!r}"
            picked.append(row)
        return None


def split_spans(body: str, size: int, overlap: int,
                separators=("\n\n", "\n", ". ", " ", "")) -> list[tuple[int, int]]:
    """Chunk spans by the recursive separator rules, walked directly.

    A segment no longer than ``size`` is one chunk. Otherwise it is cut at
    the first separator it contains; pieces longer than ``size`` are split
    again with the later separators, and runs of fitting pieces are merged
    greedily into chunks of at most ``size`` (separators between merged
    pieces stay inside). After each chunk, leading pieces are dropped until
    what remains is at most ``overlap`` long and leaves room for the next
    piece; the rest starts the next chunk.
    """

    def pieces(start, end, sep):
        if sep == "":
            return [(i, i + 1) for i in range(start, end)]
        out, i = [], start
        while i <= end:
            j = body.find(sep, i, end)
            if j == -1:
                if i < end:
                    out.append((i, end))
                break
            if j > i:
                out.append((i, j))
            i = j + len(sep)
        return out

    def merge(run, gap):
        def length(ps):
            return sum(b - a for a, b in ps) + gap * (len(ps) - 1) if ps else 0

        chunks, current = [], []
        for a, b in run:
            if current and length(current) + (b - a) + gap > size:
                chunks.append((current[0][0], current[-1][1]))
                while current and (length(current) > overlap
                                   or length(current) + (b - a) + gap > size):
                    current.pop(0)
            current.append((a, b))
        if current:
            chunks.append((current[0][0], current[-1][1]))
        return chunks

    def walk(start, end, seps):
        if end - start <= size:
            return [(start, end)]
        idx = next(i for i, s in enumerate(seps) if s == "" or s in body[start:end])
        sep, rest = seps[idx], seps[idx + 1 :]
        out, run = [], []
        for a, b in pieces(start, end, sep):
            if b - a <= size:
                run.append((a, b))
                continue
            if run:
                out += merge(run, len(sep))
                run = []
            out += walk(a, b, rest) if rest else [(a, b)]
        if run:
            out += merge(run, len(sep))
        return out

    return walk(0, len(body), tuple(separators)) if body else []


def check_cluster_stats(got: dict, labels: list[str], matrix: np.ndarray) -> str | None:
    """Compare cluster_stats output (euclidean, grouped by ``labels``) with
    numpy centroids and distances of the same float32 rows."""
    names = sorted(set(labels))
    if got["labels"] != names:
        return "cluster labels differ"
    m = matrix.astype(np.float64)
    lab = np.array(labels)
    centroids = []
    for i, name in enumerate(names):
        rows = m[lab == name]
        c = rows.mean(axis=0)
        centroids.append(c)
        if got["counts"][i] != len(rows):
            return f"label {name}: count {got['counts'][i]} != {len(rows)}"
        intra = float(np.linalg.norm(rows - c, axis=1).mean())
        if abs(got["intra"][i] - intra) > STATS_TOL:
            return f"label {name}: mean intra distance {got['intra'][i]!r} != {intra!r}"
    c = np.array(centroids)
    got_inter = np.array(got["inter"])
    for i in range(len(names)):
        if np.abs(got_inter[i] - np.linalg.norm(c - c[i], axis=1)).max() > STATS_TOL:
            return f"inter-centroid distances of {names[i]} differ"
    return None
