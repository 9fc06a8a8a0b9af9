"""Outside-in tracer for the threebraid package.

The package calls across and within its modules through module attributes
and module globals (``homology.image``, ``murasugi.classify``,
``w_.components`` and ``image(w)`` inside ``homology.determinant``).
Replacing those attributes with recording wrappers therefore sees the real
nested call tree, without any change to the package.  Leaving the ``with``
block of a ``Tracer`` puts every original back.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array

# The traced functions, by module.  cli.main is the root span of every call.
TRACED = {
    "cli": ("main",),
    "words": ("parse", "components", "permutation", "exponent_sum", "inverse"),
    "homology": ("image", "determinant", "h1_branched_cover",
                 "parabolic_invariant"),
    "murasugi": ("classify", "psl2_normal_form", "canonical_word",
                 "mirror_form"),
    "floer": ("hf_plus_s0", "correction_term", "knot_type", "is_tight",
              "is_l_space", "torus_bundle_hf", "form_determinant"),
    "invariants": ("analyze_word", "stein_report", "report_json"),
    "seifert": ("seifert_matrix", "sym_signature", "sym_determinant"),
}
NAMES = tuple(f"{module}.{function}" for module, functions in TRACED.items()
              for function in functions)
ROOT = NAMES.index("cli.main")
# A parse called directly by cli.main starts the next word of the call.
PARSE = NAMES.index("words.parse")


def _entry_bits(matrix) -> int:
    return max(abs(matrix.a), abs(matrix.b),
               abs(matrix.c), abs(matrix.d)).bit_length()


# Size counters, read from a traced function's result.
SIZES = {
    "words.parse": len,
    "murasugi.canonical_word": len,
    "homology.image": _entry_bits,
    "seifert.seifert_matrix": lambda matrix: matrix.size,
}
# Functions whose per-word self time is fitted against the word's size.
SLOPES = ("invariants.analyze_word", "murasugi.classify", "homology.image",
          "murasugi.canonical_word")


class Tracer:
    """Records a span for every call of a traced function while installed.

    Spans live in parallel arrays, indexed by span: the function's index in
    ``NAMES``, start and end from ``time.perf_counter_ns``, the parent span
    (-1 for a root), the word id, and the size counter read from the result
    (-1 where none is read).
    """

    def __init__(self, package):
        self.package = package
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.word = array("i")
        self.size = array("q")
        self.words = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for index, qualified in enumerate(NAMES):
            module_name, function = qualified.split(".")
            module = getattr(self.package, module_name)
            original = getattr(module, function)
            self._originals.append((module, function, original))
            reader = SIZES.get(qualified)
            setattr(module, function, self._wrap(index, original, reader))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, function, original in reversed(self._originals):
            setattr(module, function, original)
        self._originals.clear()

    def _wrap(self, index, function, reader):
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, words, sizes = self.parent, self.word, self.size

        def traced(*args, **kwargs):
            span = len(names)
            if not stack:
                words.append(self.words)  # the id of the call's first word
                parents.append(-1)
            else:
                if index == PARSE and len(stack) == 1:
                    self.words += 1
                words.append(self.words - 1)
                parents.append(stack[-1])
            names.append(index)
            ends.append(0)
            sizes.append(-1)
            stack.append(span)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if reader is not None:
                sizes[span] = reader(result)
            return result

        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its child spans, in
        nanoseconds.  Calls nest on one thread, so children never overlap."""
        durations = [end - start for start, end in zip(self.start, self.end)]
        self_ns = durations[:]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= durations[span]
        return self_ns

    def metrics(self, word_sizes: list[int]) -> dict[str, float]:
        """Per-layer metrics: calls and self time per word for every traced
        function, the size counters, and the complexity slopes.

        ``word_sizes`` gives each traced word's size parameter, by word id.
        """
        words = len(word_sizes)
        if words != self.words:
            raise ValueError(f"{self.words} words traced, {words} sizes given")
        count = len(NAMES)
        calls = [0] * count
        self_total = [0] * count
        size_total = [0] * count
        per_word_self = {NAMES.index(name): [0] * words for name in SLOPES}
        image = NAMES.index("homology.image")
        max_bits = [0] * words
        for span, self_ns in enumerate(self.self_times()):
            index, word = self.name[span], self.word[span]
            calls[index] += 1
            self_total[index] += self_ns
            if index in per_word_self:
                per_word_self[index][word] += self_ns
            size = self.size[span]
            if index == image:
                max_bits[word] = max(max_bits[word], size)
            elif size >= 0:
                size_total[index] += size

        metrics: dict[str, float] = {}
        for index, name in enumerate(NAMES):
            metrics[f"{name}.calls_per_word"] = calls[index] / words
            metrics[f"{name}.self_ms_per_word"] = \
                self_total[index] / words / 1e6
        metrics["words.parse.letters_per_word"] = \
            size_total[PARSE] / words
        canonical = NAMES.index("murasugi.canonical_word")
        metrics["murasugi.canonical_word.letters_per_word"] = \
            size_total[canonical] / words
        metrics["homology.image.max_entry_bits"] = sum(max_bits) / words
        matrix = NAMES.index("seifert.seifert_matrix")
        metrics["seifert.seifert_matrix.size"] = \
            size_total[matrix] / calls[matrix] if calls[matrix] else 0.0
        for index, per_word in per_word_self.items():
            metrics[f"{NAMES[index]}.self_ms_slope"] = \
                log_log_slope(word_sizes, per_word)
        return metrics

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\tword\tsize\n")
            for span, index in enumerate(self.name):
                out.write(f"{span}\t{NAMES[index]}\t{self.start[span]}\t"
                          f"{self.end[span]}\t{self.parent[span]}\t"
                          f"{self.word[span]}\t{self.size[span]}\n")


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, over the points with both
    coordinates positive; 0.0 when fewer than two distinct x remain."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
              if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in points)
    variance = sum((x - mean_x) ** 2 for x, _ in points)
    return covariance / variance
