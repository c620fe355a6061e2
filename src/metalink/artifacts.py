"""The artifacts of a run, as write_artifacts writes them: constellation_{stream}.npy
and spectrum_{tag}.npy, each a structured table whose fields are its columns
(CONSTELLATION_DTYPE, SPECTRUM_DTYPE), and summary.json. export_csv writes
the same tables as CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import core, spectral
from .core import BLOCK

# One table per artifact: each field is a column, in file order. The dtypes
# are little-endian, so the bytes of a written file do not depend on the host.
CONSTELLATION_DTYPE = np.dtype([("symbol_index", "<i8"), ("i", "<f8"), ("q", "<f8"),
                                ("ref_i", "<f8"), ("ref_q", "<f8")])
SPECTRUM_DTYPE = np.dtype([("freq_hz", "<f8"), ("power_linear", "<f8"),
                           ("power_db", "<f8")])
ARTIFACT_DTYPES = {"constellation_": CONSTELLATION_DTYPE, "spectrum_": SPECTRUM_DTYPE}
CSV_BLOCK_ROWS = 4096


def _write_table(path: Path, dtype: np.dtype, length: int, fill) -> None:
    """Write a table of length rows of dtype to path as np.save writes it:
    the header for the whole shape, then the rows, BLOCK at a time through
    one block buffer, which fill(rows, start) fills with the rows from
    start on. No whole table is formed."""
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
              "shape": (length,)}
    block = np.empty(min(length, BLOCK), dtype)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, length, BLOCK):
            rows = block[:min(BLOCK, length - start)]
            fill(rows, start)
            rows.tofile(fh)


def _constellation_rows(detected: np.ndarray, words: np.ndarray, points: np.ndarray):
    """fill for _write_table: the CONSTELLATION_DTYPE rows of one stream,
    detected its equalized symbols and points[words] its reference symbols,
    looked up one block of rows at a time."""
    def fill(rows, start):
        stop = start + len(rows)
        rows["symbol_index"] = np.arange(start, stop)
        rows["i"], rows["q"] = detected.real[start:stop], detected.imag[start:stop]
        rows["ref_i"] = points.real.take(words[start:stop])
        rows["ref_q"] = points.imag.take(words[start:stop])
    return fill


def _spectrum_rows(spectrum: spectral.Spectrum):
    """fill for _write_table: spectrum's SPECTRUM_DTYPE rows, its bin
    centres, its power, and 10 log10 of the power, each centre and decibel
    value formed in its field. The block's rows on the lattice, every
    stride-th (every row of a dense spectrum), take a contiguous slice of
    values and its decibels; at stride > 1 the other rows are first set to
    0 and -inf dB, so no log10 of their zero power is taken."""
    first, stride, values = spectrum.first_bin, spectrum.stride, spectrum.values
    offset = spectrum.first_line - first  # the row of values[0]

    def fill(rows, start):
        stop = start + len(rows)
        np.multiply(np.arange(first + start, first + stop), spectrum.resolution,
                    out=rows["freq_hz"])
        if stride > 1:
            rows["power_linear"], rows["power_db"] = 0.0, -np.inf
        skip = (offset - start) % stride  # rows before the block's first line
        begin = (start + skip - offset) // stride
        lines = values[begin:begin + -(-(len(rows) - skip) // stride)]
        rows["power_linear"][skip::stride] = lines
        db = rows["power_db"][skip::stride]
        with np.errstate(divide="ignore"):
            np.log10(lines, out=db)
        db *= 10.0
    return fill


def _unlinked(path: Path) -> Path:
    """path, with any file already there removed so that a new one is written.

    Rewriting a file in place truncates it, and ext4 (auto_da_alloc) then
    starts writing the new contents to disk when the file is closed, so a
    rerun into the same directory would wait on the disk once per
    artifact, for as long as the disk is busy. A new file stays in the
    page cache like any other write.
    """
    path.unlink(missing_ok=True)
    return path


def write_artifacts(result, out_dir) -> list:
    """Write each constellation and spectrum of a ScenarioResult's reports
    as a .npy table, then its summary as summary.json, after adding the
    artifact names to result.summary as "artifacts": the one input that an
    operation of this package mutates.

    Each table is written BLOCK rows at a time (_write_table), each
    block's reference symbols looked up from the report's sent_words and
    points, so writing holds no table, index, reference column or
    frequency grid of a frame's length; the files are those np.save
    writes of the whole tables, byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    single = len(result.reports) == 1
    for key, report in result.reports.items():
        prefix = "" if single else f"{key}_"
        for s, (d, w) in enumerate(zip(report.detected_symbols, report.sent_words)):
            path = _unlinked(out / f"constellation_{prefix}{s}.npy")
            _write_table(path, CONSTELLATION_DTYPE, len(d),
                         _constellation_rows(d, w, report.points))
            paths.append(path)
        for tag, spectrum in report.spectra.items():
            path = _unlinked(out / f"spectrum_{tag}.npy")
            _write_table(path, SPECTRUM_DTYPE, spectrum.num_bins, _spectrum_rows(spectrum))
            paths.append(path)
    result.summary["artifacts"] = sorted(p.name for p in paths) + ["summary.json"]
    summary_path = _unlinked(out / "summary.json")
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True)
                            + "\n")
    paths.append(summary_path)
    return paths


def export_csv(out_dir) -> list:
    """Write <stem>.csv next to each .npy artifact in out_dir; returns the paths.

    The header is the table's field names and each row formats integer
    fields with %d and float fields with %.17g, so a float64 reads back
    exactly. Each table is mapped, not loaded, and read CSV_BLOCK_ROWS rows
    at a time, so exporting holds no whole table. Raises ConfigurationError
    naming out_dir when it is missing or holds no artifact, and naming the
    file when an artifact cannot be read or has another layout.
    """
    out = Path(out_dir)
    if not out.is_dir():
        raise core.ConfigurationError(f"{str(out)!r} is not a directory")
    tables = [(npy, dtype) for npy in sorted(out.glob("*.npy"))
              for prefix, dtype in ARTIFACT_DTYPES.items()
              if npy.name.startswith(prefix)]
    if not tables:
        raise core.ConfigurationError(
            f"{str(out)!r} holds no constellation_*.npy or spectrum_*.npy artifact")
    paths = []
    for npy, dtype in tables:
        try:
            table = np.load(npy, allow_pickle=False, mmap_mode="r")
        except (ValueError, EOFError, OSError) as exc:  # truncated, not .npy, a directory
            raise core.ConfigurationError(f"{str(npy)!r} cannot be read: {exc}")
        if table.dtype != dtype or table.ndim != 1:
            raise core.ConfigurationError(
                f"{str(npy)!r} is not a metalink artifact: expected a 1-D "
                f"{dtype} table, found a {table.shape} {table.dtype} array")
        path = npy.with_suffix(".csv")
        # %.17g prints what f"{v:.17g}" prints, and numbers never need CSV quoting
        row_fmt = ",".join("%d" if dtype[n].kind == "i" else "%.17g"
                           for n in dtype.names) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(dtype.names) + "\n")
            for i in range(0, len(table), CSV_BLOCK_ROWS):
                block = np.column_stack([table[n][i:i + CSV_BLOCK_ROWS]
                                         for n in dtype.names])
                fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
        paths.append(path)
    return paths
