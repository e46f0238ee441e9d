"""README's Python quick start runs as written and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_python_blocks_print_their_comments():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # one namespace: the second block uses V and W of the first
        want = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        assert want
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, README, "exec"), namespace)
        assert out.getvalue().splitlines() == want
