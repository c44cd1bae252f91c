"""``python -m multiarr``: the ``multiarr`` command without the installed script."""

from .cli import entry

if __name__ == "__main__":
    entry()
