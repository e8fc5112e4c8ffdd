"""The CLI's outputs against the committed regression corpus (see output_corpus.py)."""

import shutil

import pytest

from output_corpus import OUTPUTS, REL_BOUND, compare_trees, summary, write_outputs


def test_cli_outputs_match_the_corpus(tmp_path):
    write_outputs(tmp_path)
    diffs = compare_trees(OUTPUTS, tmp_path)
    print("\n" + summary(diffs))  # byte identity is reported, not required
    problems = [p for d in diffs for p in d.problems]
    assert not problems, "\n".join(problems)
    assert len(diffs) == 196


def _moved_copy(tmp_path, rel, column, by):
    """A copy of the corpus with one number of ``column`` in file ``rel``
    moved by ``by`` of the column's peak, written as the CLI writes it."""
    new = tmp_path / "new"
    shutil.copytree(OUTPUTS, new)
    lines = (new / rel).read_text().splitlines()
    j = lines[0].split(",").index(column)
    rows = [line.split(",") for line in lines[1:]]
    peak = max(abs(float(r[j])) for r in rows)
    rows[len(rows) // 2][j] = "%.14g" % (float(rows[len(rows) // 2][j]) + by * peak)
    (new / rel).write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    return new


@pytest.mark.parametrize("by,fails", [(10 * REL_BOUND, True), (0.01 * REL_BOUND, False)],
                         ids=["ten-bounds", "a-hundredth-bound"])
def test_a_moved_number_is_caught_by_its_file_and_column(tmp_path, by, fails):
    rel = "hatze-nu3-ii/local-sens/s_rel.csv"
    diffs = compare_trees(OUTPUTS, _moved_copy(tmp_path, rel, "S_sigma", by))
    moved = [d for d in diffs if not d.identical]
    assert [d.path for d in moved] == [rel] and moved[0].column == "S_sigma"
    assert moved[0].change == pytest.approx(by, rel=1e-3)
    problems = [p for d in diffs for p in d.problems]
    assert problems == ([f"{rel}: column S_sigma moved by {by:.2e} of its peak "
                         f"(bound {REL_BOUND:g})"] if fails else [])


def test_manifests_match_apart_from_the_version(tmp_path):
    new = tmp_path / "new"
    shutil.copytree(OUTPUTS, new)
    path = new / "optimize" / "manifest.txt"
    text = path.read_text()
    path.write_text(text.replace("version = ", "version = 9"))
    assert not [p for d in compare_trees(OUTPUTS, new) for p in d.problems]
    path.write_text(text.replace("objective_evals = ", "objective_evals = 1"))
    problems = [p for d in compare_trees(OUTPUTS, new) for p in d.problems]
    assert len(problems) == 1 and problems[0].startswith("optimize/manifest.txt: objective_evals")
    (new / "optimize" / "fit_table.csv").unlink()
    problems = [p for d in compare_trees(OUTPUTS, new) for p in d.problems]
    assert "optimize/fit_table.csv: missing" in problems
