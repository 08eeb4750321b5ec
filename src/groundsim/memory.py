"""Long-term stores: symbolic KB with provenance, episodic memory, lexicon.

The visual exemplar base lives in `perception`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import CLASS, Prop, PredicateSym, part_properties, prop_key

EXPLICIT = "explicit-utterance"
NEG_IMPLICATURE = "neg-implicature"
SCALAR_IMPLICATURE = "scalar-implicature"

THETA_COUNTEREXAMPLE = 0.8


@dataclass
class KBEntry:
    prop: Prop
    provenance: set[str]
    origin_episodes: list[int]


class KnowledgeBase:
    """Generic props deduplicated by structural equality, with source tags.

    `revision` goes up whenever the props change: an `add` that creates an
    entry, and every `remove`. An `add` that only extends an entry's
    provenance leaves it as it is. Entries iterate in insertion order."""

    def __init__(self):
        self._entries: dict = {}  # prop_key -> KBEntry
        self.revision = 0
        self._memo = None  # ((revision, key), value)

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def add(self, prop: Prop, source: str, episode: int) -> KBEntry:
        if not prop.generic:
            raise ValueError("KB holds generic props only")
        key = prop_key(prop)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = KBEntry(prop, {source}, [episode])
            self.revision += 1
        else:
            entry.provenance.add(source)
            if episode not in entry.origin_episodes:
                entry.origin_episodes.append(episode)
        return entry

    def contains(self, prop: Prop) -> bool:
        return prop_key(prop) in self._entries

    def remove(self, entry: KBEntry):
        del self._entries[prop_key(entry.prop)]
        self.revision += 1

    def memo(self, key, build):
        """`build()`, computed once and reused until the revision or `key`
        changes. One value is kept: a new key replaces the old one."""
        stamp = (self.revision, key)
        if self._memo is None or self._memo[0] != stamp:
            self._memo = (stamp, build())
        return self._memo[1]


@dataclass
class EpisodicRecord:
    episode: int
    true_class: str  # teacher-asserted, hence confirmed
    property_scores: dict  # (attr, part) -> perceived confidence at answer time


class EpisodicMemory:
    """Append-only per-episode records."""

    def __init__(self):
        self.records: list[EpisodicRecord] = []

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def append(self, record: EpisodicRecord):
        self.records.append(record)


def find_counterexamples(episodic: EpisodicMemory, prop: Prop) -> list[int]:
    """Episodes whose teacher-confirmed class matches Ante(prop) and whose
    perceived properties contradict Cons(prop) at confidence >=
    THETA_COUNTEREXAMPLE."""
    if not prop.generic:
        raise ValueError("counterexample search expects a generic prop")
    ante_classes = [a.pred.name for a in prop.ante if a.pred.kind == CLASS]
    if not ante_classes:
        raise ValueError("prop has no class antecedent")
    ante_cls = ante_classes[0]
    conjuncts = [(a.name, p.name) for a, p in part_properties(prop.cons)]
    hits = []
    for rec in episodic:
        if rec.true_class != ante_cls:
            continue
        scores = [rec.property_scores.get(c) for c in conjuncts]
        if any(s is None for s in scores) or not scores:
            continue
        if prop.cons_negated:
            # rule says the class lacks the conjunction; refuted when every
            # conjunct was confidently perceived
            if all(s >= THETA_COUNTEREXAMPLE for s in scores):
                hits.append(rec.episode)
        else:
            if any(s <= 1.0 - THETA_COUNTEREXAMPLE for s in scores):
                hits.append(rec.episode)
    return hits


# ---------------------------------------------------------------------------
# lexicon


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    pos: str  # "noun" | "adj" | "rel"
    pred: PredicateSym


class Lexicon:
    """Content words introduced by the teacher; one predicate per surface
    form within a kind."""

    def __init__(self):
        self._by_surface: dict[tuple[str, str], LexiconEntry] = {}
        self._by_pred: dict[str, LexiconEntry] = {}

    def __len__(self):
        return len(self._by_pred)

    def add(self, surface: str, pos: str, pred: PredicateSym) -> LexiconEntry:
        key = (surface, pos)
        if key in self._by_surface:
            existing = self._by_surface[key]
            if existing.pred != pred:
                raise ValueError(f"surface {surface!r} already bound to {existing.pred.name}")
            return existing
        entry = LexiconEntry(surface, pos, pred)
        self._by_surface[key] = entry
        self._by_pred[pred.name] = entry
        return entry

    def lookup_surface(self, surface: str, pos: str) -> LexiconEntry | None:
        return self._by_surface.get((surface, pos))

    def lookup_pred(self, name: str) -> LexiconEntry | None:
        return self._by_pred.get(name)
