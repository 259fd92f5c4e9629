"""`python -m kbfplan ...` runs the kbfplan command line."""

from .cli import _script

if __name__ == "__main__":
    _script()
