"""The `>>>` examples in README.md run as doctests.

Only the bodies of the ```python fences are run: left in, the closing
fence line would be read as the expected output of the last example.
"""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    text = README.read_text(encoding="utf-8")
    bodies = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(bodies), {}, README.name, str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
