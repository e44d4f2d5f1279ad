"""A verifiable laboratory for the 00/1101 tag system.

Simulates the system exactly at speed, certifies that the embedded family
A^n B C^m grows forever via a closed chain of full-pass derivations, and
provides the row-language machinery for searching periodic-evolution
scaffolds.  Each public name lives in its submodule: ``core``, ``algebra``,
``words``, ``certify`` and ``blocks`` (``cli`` is the command line).

Importing the package loads none of them, so import the submodule you use
(``from taglab.core import run``); each command-line subcommand likewise
loads only the modules it needs.
"""

__version__ = "0.1.0"
