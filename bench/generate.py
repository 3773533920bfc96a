"""Seeded, stdlib-only input generator for the generated workloads.

A knowledge base is drawn with Dirichlet priors and Dirichlet conditional
rows, so every entry is strictly positive and no calculus can rule a case
out.  Cases are sampled from the knowledge base's own generative model:
the true disease by prior, then one value per chosen feature from
p(value | disease).  Gold distributions concentrate on the true disease,
expert ratings are integers 0-10, and the class disutility matrix has a
zero diagonal.

The generator keeps its draws in plain structures and writes the JSON
files the CLI loads itself, so the program's parser never produces the
reference model the benchmark checks against.  The same seed gives the
same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from uncertain_dx.kb import ConditionalTable, Disease, Feature, KnowledgeBase, Observation

CALCULI = ("simple_bayes", "odds_likelihood", "naive_dempster_shafer")


@dataclass(frozen=True)
class Model:
    """A generated knowledge base: ids in file order and every probability."""

    priors: dict[str, float]
    classes: dict[str, str]
    features: dict[str, tuple[str, ...]]
    conditionals: dict[tuple[str, str, str], float]

    def knowledge_base(self) -> KnowledgeBase:
        """The model as the program's plain data types, built without parsing."""
        return KnowledgeBase(
            diseases=tuple(
                Disease(id=d, name=d, prior=p, equivalence_class=self.classes[d])
                for d, p in self.priors.items()
            ),
            features=tuple(Feature(id=f, name=f, values=v) for f, v in self.features.items()),
            conditionals=ConditionalTable(self.conditionals),
        )


@dataclass(frozen=True)
class Case:
    id: str
    true_diagnosis: str
    observations: tuple[Observation, ...]


def dirichlet(rng: random.Random, k: int, alpha: float = 1.0) -> list[float]:
    """A point of the k-simplex with strictly positive coordinates."""
    while True:
        weights = [rng.gammavariate(alpha, 1.0) for _ in range(k)]
        if min(weights) > 0.0:
            break
    total = math.fsum(weights)
    return [w / total for w in weights]


def draw_model(rng: random.Random, diseases: int, classes: int, features: int) -> Model:
    ids = [f"d{i}" for i in range(diseases)]
    priors = dict(zip(ids, dirichlet(rng, diseases)))
    # Round-robin assignment keeps every class populated.
    class_of = {d: f"k{i % classes}" for i, d in enumerate(ids)}
    values: dict[str, tuple[str, ...]] = {}
    conditionals: dict[tuple[str, str, str], float] = {}
    for k in range(features):
        feature = f"f{k}"
        values[feature] = tuple(f"v{j}" for j in range(rng.randint(2, 4)))
        for d in ids:
            for value, p in zip(values[feature], dirichlet(rng, len(values[feature]))):
                conditionals[(feature, value, d)] = p
    return Model(priors=priors, classes=class_of, features=values, conditionals=conditionals)


def sample_case(rng: random.Random, model: Model, case_id: str, n_obs: int) -> Case:
    diseases = list(model.priors)
    true = rng.choices(diseases, weights=list(model.priors.values()))[0]
    observations = []
    for feature in rng.sample(list(model.features), n_obs):
        values = model.features[feature]
        weights = [model.conditionals[(feature, v, true)] for v in values]
        observations.append(Observation(feature=feature, value=rng.choices(values, weights)[0]))
    return Case(id=case_id, true_diagnosis=true, observations=tuple(observations))


def gold_distribution(rng: random.Random, diseases: list[str], true: str) -> dict[str, float]:
    mass = rng.uniform(0.5, 0.9)
    rest = iter(dirichlet(rng, len(diseases) - 1))
    return {d: mass if d == true else (1.0 - mass) * next(rest) for d in diseases}


def kb_document(model: Model) -> dict:
    return {
        "diseases": [
            {"id": d, "name": d, "prior": p, "class": model.classes[d]}
            for d, p in model.priors.items()
        ],
        "features": [{"id": f, "name": f, "values": list(v)} for f, v in model.features.items()],
        "conditionals": [
            {"feature": f, "disease": d, "probs": {v: model.conditionals[(f, v, d)] for v in values}}
            for f, values in model.features.items()
            for d in model.priors
        ],
    }


def write_json(path: Path, doc) -> str:
    """Write ``doc`` and return the SHA-256 of the bytes written."""
    data = json.dumps(doc).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Study:
    model: Model
    cases: list[Case]
    kb_path: Path
    cases_path: Path
    utilities_path: Path
    sha256: dict[str, str]


def generate_study(
    seed: int, out_dir: Path, *, diseases: int, classes: int, features: int, cases: int, observations: int
) -> Study:
    """A full evaluation study: knowledge base, rated cases with both gold
    standards, and a class utility model."""
    rng = random.Random(f"study:{seed}")
    model = draw_model(rng, diseases, classes, features)
    ids = list(model.priors)
    width = len(str(cases - 1))
    drawn = [sample_case(rng, model, f"c{i:0{width}d}", observations) for i in range(cases)]
    case_docs = [
        {
            "id": case.id,
            "observations": [{"feature": o.feature, "value": o.value} for o in case.observations],
            "true_diagnosis": case.true_diagnosis,
            "gold_descriptive": gold_distribution(rng, ids, case.true_diagnosis),
            "gold_informed": gold_distribution(rng, ids, case.true_diagnosis),
            "expert_ratings": {m: rng.randint(0, 10) for m in CALCULI},
        }
        for case in drawn
    ]
    class_ids = [f"k{i}" for i in range(classes)]
    utilities = {
        "classes": class_ids,
        "expansion": dict(model.classes),
        "disutility": [
            {"true": i, "diagnosed": j, "micromorts": 0 if i == j else 1000 * rng.randint(1, 500)}
            for i in class_ids
            for j in class_ids
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.json" for name in ("kb", "cases", "utilities")}
    sha = {
        "kb.json": write_json(paths["kb"], kb_document(model)),
        "cases.json": write_json(paths["cases"], case_docs),
        "utilities.json": write_json(paths["utilities"], utilities),
    }
    return Study(model, drawn, paths["kb"], paths["cases"], paths["utilities"], sha)


@dataclass(frozen=True)
class Wide:
    model: Model
    cases: list[Case]
    kb_path: Path
    sha256: dict[str, str]


def generate_wide(
    seed: int, out_dir: Path, *, diseases: int, features: int, observations: int, pool: int
) -> Wide:
    """A knowledge base and a pool of cases whose observations go inline."""
    rng = random.Random(f"wide:{seed}")
    model = draw_model(rng, diseases, diseases, features)
    drawn = [sample_case(rng, model, f"w{i}", observations) for i in range(pool)]
    out_dir.mkdir(parents=True, exist_ok=True)
    kb_path = out_dir / "kb.json"
    return Wide(model, drawn, kb_path, {"kb.json": write_json(kb_path, kb_document(model))})
