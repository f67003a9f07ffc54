"""Write ``guard_outputs.json``: pinned outputs of the citation guard.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_guard_fixture.py

The source material is a 12-document ``make_corpus`` (seed 4242) and
``reference_section_qa.txt``. For each citation list the script writes a set
of answers (echoed lists, a fabricated line, authors reordered or dropped,
titles cut below 0.6 overlap, swapped ``[n]`` labels, consistent and
conflicting ``Name et al. [n]`` attributions, title-only and label-only
lines) and records ``verify_answer_citations(...).to_dict()`` for each, and
``resolve_citations`` of every expanded chunk of every document.
``tests/test_citations.py`` checks the guard against this file.

To keep the file small, an entry is written as its position in the list it
was matched against (the first position holding an entry with the same
``to_dict``), and a report as ``{"verified": [[citation, position], ...],
"flagged": [[citation, reason], ...], "pass": bool}``.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from litrag.citations import (
    build_auxiliary_index,
    extract_citation_markers,
    extract_reference_section,
    resolve_citations,
    verify_answer_citations,
)
from litrag.ingest import load_document
from litrag.testing import FABRICATED_CITATION, make_corpus

HERE = Path(__file__).resolve().parent
OUT = HERE / "guard_outputs.json"
CORPUS_DOCS, CORPUS_SEED = 12, 4242

QA_MARKER_TEXT = (
    "Betelin et al. [32] ported the solver; [51-52] and Tang et al. [58] follow, "
    "while Dounia et al. [57] and [99] do not match. Smirnov, Betelin & Nikitin (2014) "
    "and Radulescu et al. (2013) are cited too, as is Gamezo et al. (2001)."
)


def _authors(names) -> str:
    names = list(names)
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " & " + names[-1]


def _body_markers(rng: random.Random, entries, truths) -> str:
    """In-text markers: labels, ranges, attributions (consistent and not), author-year."""
    labels = [e.label for e in entries if e.label.isdigit()]
    parts = ["Context sentence."]
    for truth in truths:
        for t in rng.sample(truth.entries, 4):
            if truth.style == "numeric":
                other = rng.choice(truth.entries)
                parts.append(f"{t.authors[0]} et al. [{t.label}] reported it.")
                parts.append(f"{other.authors[-1]} et al. [{t.label}] disagreed.")
                parts.append(f"See [{t.label}, {int(t.label) + 1}] and [{t.label}-{int(t.label) + 2}].")
            else:
                parts.append(f"{_authors(t.authors)} ({t.year}) showed it.")
                parts.append(f"{t.authors[0]} et al. ({t.year + 1}) did not.")
    if labels:
        parts.append(f"Unlisted [{max(map(int, labels)) + 50}] and [{labels[0]}].")
    return " ".join(parts)


def _answers(rng: random.Random, entries, truths) -> dict[str, str]:
    """Named answer variants over one citation list."""
    truth_entries = [t for truth in truths for t in truth.entries]
    numeric = [t for t in truth_entries if t.label.isdigit()]
    vocab = [w for truth in truths for w in truth.vocab]
    body = _body_markers(rng, entries, truths)

    def answer(lines, text="Summary of the sources."):
        return text + "\n\nReferences:\n" + "\n".join(lines) + "\n\nthanks for asking!"

    picked = rng.sample(truth_entries, min(8, len(truth_entries)))
    reordered, dropped, cut, titles = [], [], [], []
    for t in picked:
        reordered.append(f'{_authors(t.authors[::-1])} ({t.year}): "{t.title}." Venue, 1, 1-2.')
        kept = t.authors[:-1] or t.authors + ("Quillon",)
        dropped.append(f"{_authors(kept)} ({t.year}). {t.title}. Venue, 2, 3-4.")
        words = t.title.split()
        keep = max(1, len(words) // 3)
        short = " ".join(words[:keep] + rng.sample(vocab, len(words) - keep))
        cut.append(f'{_authors(t.authors)} ({t.year}): "{short}." Venue, 3, 5-6.')
        titles.append(f'"{t.title}"')
        titles.append(f'"{" ".join(rng.sample(vocab, 5))}"')
    swapped = []
    for t in rng.sample(numeric, min(6, len(numeric))):
        other = rng.choice(numeric)
        swapped.append(f"[{other.label}] " + t.text.split(" ", 1)[1])
        swapped.append(f"{rng.randint(1, 9)}. " + t.text.split(" ", 1)[1])
    label_only = [f"[{t.label}]" for t in rng.sample(numeric, min(5, len(numeric)))]
    label_only += ["[0]", "[321]", "[77] Unknown item"]
    echoed = [e.full_text for e in entries]
    return {
        "echo": answer(echoed),
        "echo_fabricated": answer(echoed[:5] + [FABRICATED_CITATION], body),
        "authors_reordered": answer(reordered),
        "authors_dropped": answer(dropped),
        "title_cut": answer(cut),
        "labels_swapped": answer(swapped),
        "title_only": answer(titles),
        "label_only": answer(label_only),
        "markers_only": body,
    }


def _position(entry, listed) -> int:
    return [e.to_dict() for e in listed].index(entry.to_dict())


def _report(text: str, listed) -> dict:
    report = verify_answer_citations(text, listed)
    return {
        "verified": [[c, _position(e, listed)] for c, e in report.verified],
        "flagged": [list(pair) for pair in report.flagged],
        "pass": report.passed,
    }


def build(workdir: Path) -> dict:
    truths = make_corpus(workdir, n_docs=CORPUS_DOCS, seed=CORPUS_SEED)
    docs = {doc_id: load_document(workdir / f"{doc_id}.txt") for doc_id in truths}
    entries = {doc_id: extract_reference_section(doc) for doc_id, doc in docs.items()}
    qa_doc = load_document(HERE / "reference_section_qa.txt")
    qa_entries = extract_reference_section(qa_doc)

    resolutions = {}
    for doc_id, doc in docs.items():
        aux = build_auxiliary_index(doc)
        rows = []
        for chunk in aux.expanded_chunks:
            resolved, unresolved = aux.citations(chunk)
            rows.append({
                "chunk_id": chunk.chunk_id,
                "resolved": [_position(e, entries[doc_id]) for e in resolved],
                "unresolved": [m.to_dict() for m in unresolved],
            })
        resolutions[doc_id] = rows
    resolved, unresolved = resolve_citations(extract_citation_markers(QA_MARKER_TEXT), qa_entries)
    resolutions["qa"] = [{
        "text": QA_MARKER_TEXT,
        "resolved": [_position(e, qa_entries) for e in resolved],
        "unresolved": [m.to_dict() for m in unresolved],
    }]

    rng = random.Random(CORPUS_SEED)
    ids = sorted(docs)
    lists = [[doc_id] for doc_id in ids]
    lists += [[ids[i], ids[i + 2]] for i in range(0, len(ids) - 2, 4)]  # two numeric lists share labels
    lists += [[ids[i], ids[i + 1]] for i in range(1, len(ids) - 1, 4)]
    cases = []
    for doc_ids in lists:
        listed = [e for doc_id in doc_ids for e in entries[doc_id]]
        for name, text in _answers(rng, listed, [truths[d] for d in doc_ids]).items():
            cases.append({
                "name": name,
                "docs": doc_ids,
                "answer": text,
                "report": _report(text, listed),
            })
    qa_lines = [e.full_text for e in qa_entries]
    for name, text in {
        "qa_echo": QA_MARKER_TEXT + "\n\nReferences:\n" + "\n".join(qa_lines),
        "qa_fabricated": "Body.\n\nSources:\n" + "\n".join(qa_lines[:3] + [FABRICATED_CITATION]),
        "qa_labels": "Body.\n\nReferences:\n[32]\n[58]\n[40]\n[57] Tang, J. Something else. 2013.",
    }.items():
        cases.append({
            "name": name,
            "docs": ["qa"],
            "answer": text,
            "report": _report(text, qa_entries),
        })
    return {
        "corpus": {"n_docs": CORPUS_DOCS, "seed": CORPUS_SEED},
        "resolutions": resolutions,
        "cases": cases,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = build(Path(tmp))
    def dump(value) -> str:
        return json.dumps(value, ensure_ascii=False)

    # one document's resolutions, or one answer, per line
    resolutions = ",\n".join(f"{dump(k)}: {dump(v)}" for k, v in data["resolutions"].items())
    cases = ",\n".join(map(dump, data["cases"]))
    OUT.write_text(
        f'{{"corpus": {dump(data["corpus"])},\n"resolutions": {{\n{resolutions}\n}},\n'
        f'"cases": [\n{cases}\n]}}\n',
        encoding="utf-8",
    )
    print(f"wrote {OUT.name}: {len(data['cases'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
