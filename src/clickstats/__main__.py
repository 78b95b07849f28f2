"""`python -m clickstats`: the command line front end (see clickstats.cli)."""

from .cli import entry

if __name__ == "__main__":
    entry()
