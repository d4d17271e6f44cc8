"""Two site daemons, one federated transfer, one SIGKILL recovery.

Run:  PYTHONPATH=src python examples/multiprocess_sites.py

Spawns two real OS processes (``python -m repro.site``) hosting the demo
bank, drives a cross-site transfer from a client transport (a federated
commit with coordinator interposition over TCP: site-b's subordinate is
the last agent and decides with one ``commit_one_phase``), then SIGKILLs
the coordinator *after the agent committed but before its own install*
and restarts it — its logged ``tx_delegated`` holds the debit until it
asks site-b, which answers committed, and the transfer completes.
"""

import tempfile

from repro.exceptions import CommunicationError
from repro.testing import SiteCluster
from repro.testing.process_harness import wait_until

DESK = "site-a.bank"
BANK = "site-b.bank"


def balances(client):
    return (
        client.ref(DESK, "acct-1", "BankAccount").invoke("balance"),
        client.ref(BANK, "acct-2", "BankAccount").invoke("balance"),
    )


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-sites-")
    specs = {
        "site-a": {
            "app": "repro.apps.site_apps:transfer_desk_site",
            "cell_store": "segmented",
        },
        "site-b": {
            "app": "repro.apps.site_apps:bank_site",
            "cell_store": "segmented",
        },
    }
    with SiteCluster(root, specs) as cluster:
        cluster.start()
        print(f"site daemons up (state under {root})")
        client = cluster.client()
        desk = client.ref(DESK, "desk", "TransferDesk")

        out = desk.invoke("transfer", "acct-1", BANK, "acct-2", 25.0)
        print(f"transfer 25.0 across sites -> {out}")
        print(f"balances: {balances(client)}")

        print("\narming SIGKILL at 'after_commit_log' on site-a ...")
        client.control("site-a", {"op": "arm_kill", "point": "after_commit_log"})
        try:
            desk.invoke("transfer", "acct-1", BANK, "acct-2", 10.0)
        except CommunicationError:
            print("transfer in flight when the coordinator was SIGKILLed")
        cluster["site-a"].wait_exit()
        print("site-a dead (pid reaped), balances on survivor only")

        print("restarting site-a: it asks the agent and completes the commit ...")
        cluster["site-a"].restart()
        client.wait_ready("site-a")
        wait_until(lambda: balances(client) == (65.0, 135.0))
        print(f"recovered balances: {balances(client)}  (transfer completed)")
        client.close()


if __name__ == "__main__":
    main()
