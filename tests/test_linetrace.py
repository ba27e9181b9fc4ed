"""The collector of tools/linetrace.py, on a fixture module with one untested branch."""

import pathlib
import sys
import threading

from devices import load

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "linetrace.py"

FIXTURE = '''"""A fixture module: one branch that no caller takes."""


def sign(x):
    if x < 0:
        return -1
    return 1


def double(x):
    return 2 * x
'''


def test_unrun_lines_lists_exactly_the_untested_branch(tmp_path):
    linetrace = load("linetrace", TOOL)
    package = tmp_path.resolve() / "fixture"
    package.mkdir()
    (package / "signs.py").write_text(FIXTURE)

    def run():
        signs = load("signs", package / "signs.py")
        # double runs in a thread only: threads are traced too
        thread = threading.Thread(target=signs.double, args=(3,))
        thread.start()
        thread.join()
        return signs.sign(2)

    before = sys.gettrace()
    result, missed = linetrace.unrun_lines(package, run)
    assert sys.gettrace() is before
    assert result == 1
    assert missed == [(package / "signs.py", 6)]
