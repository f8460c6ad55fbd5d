package main

// referenceDigests are the SHA-256 digests of every workload's outputs at
// the default seed and full size: one per policy row of the scenario
// report JSON, and one over the rendered paper-matrix tables. A change
// that alters the model must refresh them in the same change, and say
// why; a mismatch prints the digest each output now has.
var referenceDigests = map[string]map[string]string{
	"paper-matrix": {
		"tables": "bfc476c5f8368f21e9382d4795736665f7f073e440e41dd853f06dc8dad24779",
	},
	"rack-farm-failures": {
		"AMPoM":        "437d2b8c1675ee2abd32e8c6a155c0ee0fb70ebdb45767503e1ffbfcce3a7669",
		"load-vector":  "25cee9e9d85ae4dcb83a3f0cc786c114b5db967dae235af878888c0598402417",
		"mem-usher":    "6a36e126b803d922f1b49f1019cd55191e18e24e21d733dcfe778b1bdb9f0c0d",
		"no-migration": "08eb85958f38c0b3890e83be21926f3656c327f42c6d5a170aa19142050b952a",
		"openMosix":    "169595d76c1ec0c07c1c0cc3ac31e58e7831730ad3c1c50713ac6d22a17cb423",
		"queue-gossip": "b838af3bea531379f8d05491acce1dcca691039090beb9841f3508078c8cc794",
	},
	"mega-farm-sharded": {
		"AMPoM":        "a4c562ea14c92798010af2147be1bfcfc2feba9eecf0a96af7b5b573d10c2683",
		"no-migration": "1c861094cfab2ede71c0e547bdd1ee7b2496b4801d47a1953ede711180a3b5c1",
		"queue-gossip": "7028ad608700149d5917699bdd5bc1fd905ecde8cfb78da8ed34616d4846adb5",
	},
}
