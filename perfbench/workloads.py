"""Workload definitions shared by run.py and the pass worker.

Nothing here imports coxfold: run.py builds every input from the seed
and writes it to files, and only the worker process touches the program.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 0
WORKLOADS = ("catalog-slow", "verify", "words")

# verify: (name, input file text, ambient W finite?)
VERIFY_INSTANCES = (
    ("a5-flip",
     "rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 4 5 3\nauto flip 1>5 5>1 2>4 4>2\n",
     True),
    ("d4-triality",
     "rank 4\nm 1 2 3\nm 2 3 3\nm 2 4 3\nauto rot 1>3 3>4 4>1\n",
     True),
    ("h3-id",
     "rank 3\nm 1 2 5\nm 2 3 3\nauto id\n",
     True),
    ("affine-a2-flip",
     "rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\nauto flip 1>2 2>1\n",
     False),
    ("tri443-swap",
     "rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\nauto swap 2>3 3>2\n",
     False),
    ("infinite-dihedral-flip",
     "rank 2\nm 1 2 inf\nauto flip 1>2 2>1\n",
     False),
)
VERIFY_RADIUS = 16
# instances timed on their own; infinite-dihedral-flip is too short to time
VERIFY_TIMED = ("a5-flip", "d4-triality", "h3-id", "affine-a2-flip",
                "tri443-swap")

# words: (name, input file text, W finite?)
WORD_GROUPS = (
    ("a5", "rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 4 5 3\n", True),
    ("f4", "rank 4\nm 1 2 3\nm 2 3 4\nm 3 4 3\n", True),
    ("h4", "rank 4\nm 1 2 5\nm 2 3 3\nm 3 4 3\n", True),
    ("affine-a2", "rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\n", False),
    ("tri237", "rank 3\nm 1 2 3\nm 2 3 7\n", False),
)
WORDS_PER_GROUP = 400
WORD_LENGTHS = (8, 64)

# catalog rows whose ambient W is infinite
CATALOG_INFINITE = ("affine-a2-flip", "infinite-dihedral-flip")

# self-test sizes: seconds in total, same code paths
TINY_VERIFY = ("d4-triality", "affine-a2-flip", "infinite-dihedral-flip")
TINY_VERIFY_RADIUS = 4
TINY_WORDS_PER_GROUP = 6


def _rank(text: str) -> int:
    return int(text.split()[1])


def make_words(seed: int, per_group: int) -> list[list]:
    """Seeded [group, word] pairs, evenly spread over the groups and shuffled.

    Lengths are uniform in WORD_LENGTHS and no letter repeats back to back.
    """
    rng = random.Random(f"coxfold-words:{seed}")
    items = []
    for name, text, _ in WORD_GROUPS:
        rank = _rank(text)
        for _ in range(per_group):
            length = rng.randint(*WORD_LENGTHS)
            word = [rng.randint(1, rank)]
            while len(word) < length:
                s = rng.randint(1, rank)
                if s != word[-1]:
                    word.append(s)
            items.append([name, word])
    rng.shuffle(items)
    return items


def make_inputs(workload: str, seed: int, tiny: bool, work_dir: str) -> dict:
    """Write the workload's input files under work_dir; return the job spec."""
    os.makedirs(work_dir, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "tiny": tiny}
    if workload == "catalog-slow":
        spec["argv"] = ["catalog"] if tiny else ["catalog", "--slow"]
    elif workload == "verify":
        names = TINY_VERIFY if tiny else [n for n, _, _ in VERIFY_INSTANCES]
        radius = TINY_VERIFY_RADIUS if tiny else VERIFY_RADIUS
        instances = []
        for name, text, finite in VERIFY_INSTANCES:
            if name not in names:
                continue
            path = os.path.join(work_dir, name + ".cox")
            with open(path, "w") as fh:
                fh.write(text)
            argv = ["verify", path, "--radius", str(radius),
                    "--seed", str(seed), "--format", "json"]
            instances.append({"name": name, "file": path, "finite": finite,
                              "argv": argv})
        spec["instances"] = instances
    elif workload == "words":
        groups = []
        for name, text, finite in WORD_GROUPS:
            path = os.path.join(work_dir, name + ".cox")
            with open(path, "w") as fh:
                fh.write(text)
            groups.append({"name": name, "file": path, "finite": finite})
        per_group = TINY_WORDS_PER_GROUP if tiny else WORDS_PER_GROUP
        words_path = os.path.join(work_dir, "words.json")
        with open(words_path, "w") as fh:
            json.dump(make_words(seed, per_group), fh)
        spec["groups"] = groups
        spec["words_file"] = words_path
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec
