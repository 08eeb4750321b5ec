"""Synthetic stand-in for the neural vision stack.

Scenes are sampled from per-concept feature prototypes with isotropic noise;
the exemplar base holds positive/negative feature sets per concept and
induces few-shot kernel classifiers; whole-part relation scores come from
bounding-box area ratios. Class prototypes are built from the classes'
property vectors, so classes sharing properties (brandy/burgundy) are close
in feature space and genuinely confusable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from weakref import WeakValueDictionary

import numpy as np

FEATURE_DIM = 16
ONE_SIDED_SCORE = 0.8  # positives-only exemplar sets
BANDWIDTH_FLOOR = 1e-3
KERNEL_GAIN = 3.0  # whole-object class detector temperature
PART_GAIN = 36.0  # part-kind detector temperature (parts are easy to spot)
ATTR_GAIN = 32.0  # attribute detector temperature
ATTR_BIAS = 1.6  # conservative attribute calibration: high specificity
PRIORS_PER_CLASS = 12  # prior objects sampled per class by init_priors
HELDOUT_SAMPLES = 200  # objects per heldout_accuracy measurement

# calibrated against held-out accuracy targets (parts >= 0.95, attrs 0.80-0.92)
SIGMA_CLASS = 0.55
SIGMA_PART = 0.30
SIGMA_ATTR = 0.28

# whole-object appearance is dominated by the first-listed (largest) part;
# properties of the remaining parts contribute less to the global feature,
# and attributes of that primary part are rendered with less noise
SECONDARY_PART_SALIENCE = 0.35
PRIMARY_ATTR_CLARITY = 0.7


# ---------------------------------------------------------------------------
# domain


@dataclass(frozen=True)
class DomainSpec:
    """Classes with their (attribute, part) property sets."""

    classes: dict  # class -> {part: [attributes]}
    parts: tuple[str, ...]
    attributes: tuple[str, ...]
    surfaces: dict  # class -> NL surface form

    @staticmethod
    def from_dict(d: dict) -> "DomainSpec":
        return DomainSpec(
            classes={k: dict(v) for k, v in d["classes"].items()},
            parts=tuple(d["parts"]),
            attributes=tuple(d["attributes"]),
            surfaces=dict(d.get("surfaces", {})),
        )

    @staticmethod
    def builtin_glasses() -> "DomainSpec":
        text = resources.files("groundsim.data").joinpath("glasses.json").read_text()
        return DomainSpec.from_dict(json.loads(text))

    def properties(self, cls: str) -> frozenset[tuple[str, str]]:
        if cls not in self.classes:
            raise KeyError(f"unknown class: {cls}")
        return frozenset(
            (attr, part) for part, attrs in self.classes[cls].items() for attr in attrs
        )

    def part_attrs(self, cls: str, part: str) -> tuple[str, ...]:
        return tuple(self.classes[cls].get(part, ()))


def concept_diff(domain: DomainSpec, p1: str, p2: str):
    """Symmetric property-set difference: (props(p1) - props(p2), props(p2) - props(p1))."""
    a, b = domain.properties(p1), domain.properties(p2)
    return (a - b, b - a)


# ---------------------------------------------------------------------------
# scenes


@dataclass
class BBox:
    x: float
    y: float
    w: float
    h: float

    def area(self) -> float:
        return self.w * self.h

    def intersection_area(self, other: "BBox") -> float:
        ix = max(0.0, min(self.x + self.w, other.x + other.w) - max(self.x, other.x))
        iy = max(0.0, min(self.y + self.h, other.y + other.h) - max(self.y, other.y))
        return ix * iy


def relation_score(whole: BBox, part: BBox) -> float:
    """area(whole ∩ part) / area(part), clamped to [0, 1]."""
    if whole.w <= 0 or whole.h <= 0:
        raise ValueError("degenerate whole box")
    if part.area() <= 0:
        raise ValueError("degenerate part box")
    return min(1.0, max(0.0, whole.intersection_area(part) / part.area()))


@dataclass
class PartInstance:
    eid: str
    kind: str
    bbox: BBox
    attrs: tuple[str, ...]  # ground truth
    class_feature: np.ndarray
    attr_feature: np.ndarray


@dataclass
class SceneObject:
    eid: str
    cls: str  # ground truth
    bbox: BBox
    class_feature: np.ndarray
    parts: list[PartInstance]


class FeatureModel:
    """Seeded prototype geometry shared across all runs of a suite."""

    def __init__(self, domain: DomainSpec, seed: int = 0):
        self.domain = domain
        rng = np.random.default_rng([seed, 0xD0])

        def unit(v):
            return v / np.linalg.norm(v)

        # property anchors in class space; class prototypes are property sums,
        # so sibling classes sharing properties land near each other
        prop_vecs = {}
        for part in domain.parts:
            for attr in domain.attributes:
                prop_vecs[(attr, part)] = rng.normal(size=FEATURE_DIM)
        self.class_protos = {}
        primary = domain.parts[0]
        for cls in domain.classes:
            vecs = [
                prop_vecs[(attr, part)] * (1.0 if part == primary else SECONDARY_PART_SALIENCE)
                for (attr, part) in sorted(domain.properties(cls))
            ]
            self.class_protos[cls] = unit(np.sum(vecs, axis=0))
        # orthonormal detector bases keep attribute/part margins uniform,
        # so detector quality does not depend on chance anchor overlaps
        pbasis = np.linalg.qr(rng.normal(size=(FEATURE_DIM, FEATURE_DIM)))[0].T
        self.part_protos = {p: pbasis[i] for i, p in enumerate(domain.parts)}
        abasis = np.linalg.qr(rng.normal(size=(FEATURE_DIM, FEATURE_DIM)))[0].T
        self.attr_protos = {a: abasis[i] for i, a in enumerate(domain.attributes)}
        # "plain" direction for parts with no characteristic attributes
        self.plain_proto = abasis[len(domain.attributes)]

    def _attr_feature(self, attrs: tuple[str, ...], rng, clarity: float = 1.0) -> np.ndarray:
        # summed (not averaged) anchors keep a fixed margin per present attribute
        if attrs:
            base = np.sum([self.attr_protos[a] for a in attrs], axis=0)
        else:
            base = self.plain_proto
        return base + clarity * SIGMA_ATTR * rng.normal(size=FEATURE_DIM)

    def sample_object(self, cls: str, eid: str, rng) -> SceneObject:
        if cls not in self.domain.classes:
            raise KeyError(f"unknown class: {cls}")
        x, y = rng.uniform(0.05, 0.55, size=2)
        w, h = rng.uniform(0.2, 0.4, size=2)
        bbox = BBox(x, y, w, h)
        parts = []
        for i, part in enumerate(self.domain.parts):
            attrs = self.domain.part_attrs(cls, part)
            # parts sit fully inside the whole: relation score 1.0
            px = x + 0.1 * w
            py = y + (0.1 + 0.45 * i) * h
            pbox = BBox(px, py, 0.5 * w, 0.35 * h)
            parts.append(
                PartInstance(
                    eid=f"{eid}_{part}",
                    kind=part,
                    bbox=pbox,
                    attrs=attrs,
                    class_feature=self.part_protos[part]
                    + SIGMA_PART * rng.normal(size=FEATURE_DIM),
                    attr_feature=self._attr_feature(
                        attrs,
                        rng,
                        clarity=PRIMARY_ATTR_CLARITY if part == self.domain.parts[0] else 1.0,
                    ),
                )
            )
        return SceneObject(
            eid=eid,
            cls=cls,
            bbox=bbox,
            class_feature=self.class_protos[cls]
            + SIGMA_CLASS * rng.normal(size=FEATURE_DIM),
            parts=parts,
        )


def generate_scene(model: FeatureModel, target: str, rng, n_distractors: int) -> list[SceneObject]:
    """Target instance plus distractor objects; deterministic given the rng state."""
    if target not in model.domain.classes:
        raise KeyError(f"unknown target class: {target}")
    objs = [model.sample_object(target, "o1", rng)]
    others = [c for c in sorted(model.domain.classes) if c != target]
    for i in range(n_distractors):
        cls = others[int(rng.integers(len(others)))]
        objs.append(model.sample_object(cls, f"o{i + 2}", rng))
    return objs


def generate_target(model: FeatureModel, target: str, rng, n_distractors: int) -> SceneObject:
    """`generate_scene`'s target alone. Each distractor's variates are drawn
    as its class and `sample_object` draw them, but no distractor is built,
    so the rng ends in the state `generate_scene` leaves it in."""
    obj = generate_scene(model, target, rng, 0)[0]
    for _ in range(n_distractors):
        rng.integers(len(model.domain.classes) - 1)
        rng.uniform(size=4)  # the box
        rng.normal(size=FEATURE_DIM * (1 + 2 * len(model.domain.parts)))
    return obj


# ---------------------------------------------------------------------------
# exemplar base and few-shot classification


@dataclass(frozen=True, eq=False)
class _Pool:
    """The stacked rows of a multiset of exemplars, with their bandwidth."""

    bandwidth: float
    matrix: np.ndarray  # rows in the order of the pool's sorted row ids


class ExemplarBase:
    """chi+/chi- feature sets per concept; mutated only between episodes.

    `add` stores a read-only copy of each distinct feature row once, so a
    caller that later writes to its array changes no exemplar. Concepts
    whose exemplars are the same multiset of rows share one pool: one
    stacked matrix and one bandwidth, which the scorer turns into one
    distance matrix per feature matrix."""

    def __init__(self):
        self.positive: dict[str, list[np.ndarray]] = {}
        self.negative: dict[str, list[np.ndarray]] = {}
        self._row_ids: dict[tuple, int] = {}  # (shape, bytes) of a row -> its id
        self._rows: list[np.ndarray] = []  # row id -> read-only row
        self._ids: dict[str, tuple[list[int], list[int]]] = {}  # concept -> pos, neg row ids
        # concept -> (pool, pos columns, neg columns), until its exemplars change
        self._cache: dict[str, tuple[_Pool, np.ndarray, np.ndarray]] = {}
        # sorted row ids -> pool; a pool goes when no cached concept holds it
        self._pools: WeakValueDictionary[tuple[int, ...], _Pool] = WeakValueDictionary()

    def add(self, concept: str, feature: np.ndarray, positive: bool):
        row = np.array(feature, dtype=float)
        key = (row.shape, row.tobytes())
        rid = self._row_ids.get(key)
        if rid is None:
            rid = self._row_ids[key] = len(self._rows)
            row.flags.writeable = False
            self._rows.append(row)
        store = self.positive if positive else self.negative
        store.setdefault(concept, []).append(self._rows[rid])
        self._ids.setdefault(concept, ([], []))[0 if positive else 1].append(rid)
        self._cache.pop(concept, None)

    def _classifier(self, concept: str) -> tuple[_Pool, np.ndarray, np.ndarray]:
        """(pool, pos columns, neg columns) of a concept with positives and
        negatives, cached until its exemplars change."""
        cached = self._cache.get(concept)
        if cached is None:
            pos_ids, neg_ids = self._ids[concept]
            key = tuple(sorted(pos_ids + neg_ids))
            pool = self._pools.get(key)
            if pool is None:
                rows = [self._rows[i] for i in key]
                pool = self._pools[key] = _Pool(_bandwidth(rows), np.stack(rows))
            cached = self._cache[concept] = (
                pool,
                np.searchsorted(key, pos_ids),
                np.searchsorted(key, neg_ids),
            )
        return cached

    def process_correction(self, wrong: str, true: str, feature: np.ndarray):
        """Teacher's corrective response: grow chi+ of the true concept and
        chi- of the wrongly answered one."""
        self.add(true, feature, positive=True)
        self.add(wrong, feature, positive=False)


def _bandwidth(exemplars: list[np.ndarray]) -> float:
    if len(exemplars) < 2:
        return 1.0
    x = np.stack(exemplars)
    i, j = np.triu_indices(len(x), k=1)
    dists = np.sqrt(np.sum((x[i] - x[j]) ** 2, axis=-1))
    # np.median's own arithmetic, without its import of numpy.ma
    lo, hi = (len(dists) - 1) // 2, len(dists) // 2
    p = np.partition(dists, [lo, hi])
    return max(float((p[lo] + p[hi]) / 2), BANDWIDTH_FLOOR)


def score_fewshot(
    xb: ExemplarBase,
    concepts: list[str],
    features: np.ndarray,
    gain: float | np.ndarray = KERNEL_GAIN,
    bias: float = 0.0,
) -> dict[str, np.ndarray]:
    """Calibrated kernel-mean discriminant between chi+ and chi-: concept ->
    one score per row of an (n, d) feature matrix.

    Each row's margin is the mean Gaussian kernel value to the positives
    minus that to the negatives; the score is sigmoid(gain * margin - bias),
    with one gain for all rows or one per row. A positive bias makes the
    detector conservative: confident denials stay confident while weak
    detections drop toward the 0.5 prior. Concepts with no exemplars score
    0.5 and one-sided ones ONE_SIDED_SCORE (or its complement) before the
    feature dimension is checked.

    The kernel values to a pool's rows are computed once for all the
    concepts that share it. Each concept then sums a C-contiguous copy of
    its own columns, in its own exemplar order, and divides by their count,
    as a mean over its rows alone does; a sum over the shared matrix, or over
    a strided gather, can differ in the last bit. The sigmoid runs once over
    the margins of all the scored concepts."""
    features = np.asarray(features, dtype=float)
    kernels: dict[_Pool, np.ndarray] = {}  # pool -> (n, pool rows) kernel values
    scores, scored = {}, []  # scored concepts hold their margins until the sigmoid
    for concept in concepts:
        pos, neg = xb.positive.get(concept), xb.negative.get(concept)
        if not pos or not neg:
            fixed = 0.5 if not pos and not neg else ONE_SIDED_SCORE if pos else 1.0 - ONE_SIDED_SCORE
            scores[concept] = np.full(len(features), fixed)
            continue
        if features.shape[1:] != pos[0].shape:
            raise ValueError("feature dimension mismatch")
        pool, pos_cols, neg_cols = xb._classifier(concept)
        k = kernels.get(pool)
        if k is None:
            d2 = ((pool.matrix - features[:, None, :]) ** 2).sum(axis=-1)
            h = pool.bandwidth
            k = kernels[pool] = np.exp(-d2 / (2 * h * h))
        pos_mean = np.add.reduce(k.take(pos_cols, axis=1), axis=1) / len(pos_cols)
        scores[concept] = pos_mean - np.add.reduce(k.take(neg_cols, axis=1), axis=1) / len(neg_cols)
        scored.append(concept)
    if scored:
        margins = np.stack([scores[c] for c in scored])
        scores.update(zip(scored, 1.0 / (1.0 + np.exp(-(gain * margins - bias)))))
    return scores


# ---------------------------------------------------------------------------
# scene graphs


@dataclass
class SceneNode:
    class_scores: dict = field(default_factory=dict)
    attr_scores: dict = field(default_factory=dict)


@dataclass
class SceneGraph:
    """Once queried, only a graph's score values may change."""

    nodes: dict  # eid -> SceneNode
    edges: dict  # (whole eid, part eid) -> {"have": score}
    object_parts: dict  # object eid -> [part eids]
    # tuple of query atoms -> its `reasoner._plan_key`, which reads no score value
    plan_keys: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def whole_of(self) -> dict:
        """part eid -> its object's eid, built on first use."""
        return {p: o for o, parts in self.object_parts.items() for p in parts}


def build_scene_graph(
    scene: list[SceneObject],
    xb: ExemplarBase,
    class_concepts: list[str],
    attr_concepts: list[str],
) -> SceneGraph:
    """Score every entity against the known concepts; unknown concepts sit at
    the 0.5 prior; 'have' edges are bbox area ratios. See `SceneScores`."""
    return SceneScores(scene, xb).graph(class_concepts, attr_concepts)


class SceneScores:
    """The perception of one scene against one exemplar base, kept from one
    `graph` call to the next: a test set perceived at every exam.

    A scene is scored in two `score_fewshot` calls: class concepts over the
    class features of the objects and then of the parts, with KERNEL_GAIN
    on object rows and PART_GAIN on part rows, and attribute concepts over
    the parts' attribute features. Within a call, concepts that share an
    exemplar pool share one kernel matrix. An entity's scores depend only on
    its own features, its own gain and the exemplar base, so each object's
    nodes and edges are those of its own one-object scene.

    The graph is kept from one call to the next with the same concepts.
    Each role's scores of a concept are written into its nodes with the
    concept's exemplar stamp, (len(positive), len(negative)): exemplar sets
    only grow, so the stamp names the set, and `graph` scores again and
    writes only the concepts whose stamp moved. `score_fewshot` scores each
    concept on its own, so a kept score equals a fresh one."""

    def __init__(self, scene: list[SceneObject], xb: ExemplarBase):
        self.scene = scene
        self.xb = xb
        parts = [part for obj in scene for part in obj.parts]
        entities = [*scene, *parts]
        gains = np.repeat([KERNEL_GAIN, PART_GAIN], [len(scene), len(parts)])
        self._roles = {  # role -> (entities, stacked features, gain, bias)
            "class": (entities, np.array([e.class_feature for e in entities]), gains, 0.0),
            "attr": (parts, np.array([p.attr_feature for p in parts]), ATTR_GAIN, ATTR_BIAS),
        }
        self._concepts: tuple[list[str], list[str]] | None = None  # those of the kept graph
        self._stamps: dict[tuple[str, str], tuple[int, int]] = {}  # (role, concept) -> stamp

    def graph(self, class_concepts: list[str], attr_concepts: list[str]) -> SceneGraph:
        """The scene graph of the scene against the exemplar base as it is now."""
        concepts = (list(class_concepts), list(attr_concepts))
        if concepts != self._concepts:
            nodes, edges, object_parts = {}, {}, {}
            for obj in self.scene:
                nodes[obj.eid] = SceneNode()
                object_parts[obj.eid] = [part.eid for part in obj.parts]
                for part in obj.parts:
                    nodes[part.eid] = SceneNode()
                    edges[(obj.eid, part.eid)] = {"have": relation_score(obj.bbox, part.bbox)}
            self._graph = SceneGraph(nodes, edges, object_parts)
            self._concepts, self._stamps = concepts, {}
        xb, nodes = self.xb, self._graph.nodes
        for (role, (entities, *scoring)), names in zip(self._roles.items(), concepts):
            stamps = {c: (len(xb.positive.get(c, ())), len(xb.negative.get(c, ()))) for c in names}
            moved = [c for c in names if self._stamps.get((role, c)) != stamps[c]]
            self._stamps.update(((role, c), stamps[c]) for c in moved)
            if moved:  # a role's scores go to its entities' class_scores or attr_scores
                rows = [getattr(nodes[e.eid], f"{role}_scores") for e in entities]
                for c, scores in _score_rows(xb, moved, *scoring).items():
                    for row, score in zip(rows, scores):
                        row[c] = score
        return self._graph


def _score_rows(xb, concepts, features, gain, bias=0.0) -> dict[str, list[float]]:
    """concept -> `score_fewshot` of each feature row, as floats."""
    if not len(features):
        return {c: [] for c in concepts}
    scores = score_fewshot(xb, concepts, features, gain, bias)
    return {c: s.tolist() for c, s in scores.items()}


# ---------------------------------------------------------------------------
# prior knowledge injection


def init_priors(xb: ExemplarBase, model: FeatureModel, rng) -> ExemplarBase:
    """Expose the agent to part and attribute exemplars of PRIORS_PER_CLASS
    objects per class of the full domain. Target object classes are
    deliberately left out of the XB."""
    domain = model.domain
    for cls in sorted(domain.classes):
        for _ in range(PRIORS_PER_CLASS):
            obj = model.sample_object(cls, "prior", rng)
            for part in obj.parts:
                for kind in domain.parts:
                    xb.add(kind, part.class_feature, positive=(kind == part.kind))
                for attr in domain.attributes:
                    xb.add(attr, part.attr_feature, positive=(attr in part.attrs))
    return xb


def heldout_accuracy(xb: ExemplarBase, model: FeatureModel, rng) -> tuple[float, float]:
    """Balanced binary accuracy of part-kind and attribute classifiers on
    HELDOUT_SAMPLES freshly generated instances."""
    domain = model.domain
    classes = sorted(domain.classes)
    objs = [
        model.sample_object(classes[i % len(classes)], "test", rng) for i in range(HELDOUT_SAMPLES)
    ]
    parts = [part for obj in objs for part in obj.parts]
    part_scores = _score_rows(xb, domain.parts, [p.class_feature for p in parts], KERNEL_GAIN)
    attr_scores = _score_rows(xb, domain.attributes, [p.attr_feature for p in parts], KERNEL_GAIN)
    part_hits = sum(
        (score > 0.5) == (kind == part.kind)
        for kind in domain.parts
        for score, part in zip(part_scores[kind], parts)
    )
    attr_hits = sum(
        (score > 0.5) == (attr in part.attrs)
        for attr in domain.attributes
        for score, part in zip(attr_scores[attr], parts)
    )
    return (
        part_hits / (len(parts) * len(domain.parts)),
        attr_hits / (len(parts) * len(domain.attributes)),
    )
