"""In-memory span recording around the benchmark's calls into blockdet.

A span is one record: name, start, end, parent span index (-1 for a root),
job id, pass number and the counts read from the call's return value.
Spans stay in a list and are handed over when the run ends.
"""

from __future__ import annotations

from time import perf_counter

NAME, START, END, PARENT, JOB, PASS, COUNTS = range(7)


def untraced(name, fn, *args, counts=None):
    """The step function of untraced runs: just the call."""
    return fn(*args)


class Spans:
    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []
        self.job = None
        self.pass_no = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.records)
        self._open.append(index)
        self.records.append([name, 0.0, 0.0, parent, self.job, self.pass_no, None])
        self.records[index][START] = perf_counter()
        return index

    def end(self) -> float:
        stop = perf_counter()
        record = self.records[self._open.pop()]
        record[END] = stop
        return stop - record[START]

    def close_all(self) -> None:
        """Close the spans an exception left open: the job timer can fire
        between a span's begin and the try block that would end it."""
        while self._open:
            self.end()

    def __call__(self, name, fn, *args, counts=None):
        """The step function of traced runs: one child span per call.
        Counts are read from the result after the span has closed."""
        index = self.begin(name)
        try:
            result = fn(*args)
        finally:
            self.end()
        if counts is not None:
            self.records[index][COUNTS] = counts(result)
        return result
