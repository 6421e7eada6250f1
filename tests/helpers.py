"""Test-only helpers that write fixture files."""

from __future__ import annotations

import csv


def save_csv(dataset, path, label_column: str = "label") -> None:
    """Write a Dataset to CSV with full float precision (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.m)] + [label_column])
        for i in range(dataset.n):
            cells = [repr(float(v)) for v in dataset.features[i]]
            writer.writerow(cells + [int(dataset.labels[i])])
