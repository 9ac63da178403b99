package lce

import (
	"testing"
)

func TestPublicAPILearnAndInvoke(t *testing.T) {
	for _, service := range []string{"ec2", "dynamodb", "network-firewall", "azure-network"} {
		c, err := Documentation(service)
		if err != nil {
			t.Fatalf("%s: %v", service, err)
		}
		emu, rep, err := Learn(c, PerfectOptions())
		if err != nil {
			t.Fatalf("%s: %v", service, err)
		}
		if rep.SMCount == 0 || len(emu.Actions()) == 0 {
			t.Errorf("%s: SMs=%d actions=%d", service, rep.SMCount, len(emu.Actions()))
		}
	}
}

func TestPublicAPICloudAndCompare(t *testing.T) {
	oracle, err := Cloud("ec2")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Documentation("ec2")
	emu, _, err := Learn(c, PerfectOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range Scenarios("ec2") {
		if rep := Compare(emu, oracle, tr); !rep.Aligned() {
			t.Errorf("trace %s diverged", tr.Name)
		}
	}
}

func TestPublicAPIAlignWithCloud(t *testing.T) {
	res, err := Align("azure-network", DefaultOptions(), AlignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("alignment did not converge")
	}
}

func TestPublicAPIUnknownService(t *testing.T) {
	if _, err := Cloud("s3"); err == nil {
		t.Error("unknown service accepted")
	}
	if _, err := Documentation("s3"); err == nil {
		t.Error("unknown corpus accepted")
	}
	if Scenarios("s3") != nil {
		t.Error("unknown scenarios non-nil")
	}
	if res, err := Align("s3", DefaultOptions(), AlignConfig{}); err == nil || res != nil {
		t.Errorf("unknown service aligned: (%v, %v)", res, err)
	}
}

func TestPublicAPIDirectToCode(t *testing.T) {
	c, _ := Documentation("ec2")
	b, err := DirectToCode(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Actions()) == 0 {
		t.Error("d2c has no actions")
	}
}

// TestPublicAPIFlakyCloud exercises the chaos + resilience facade:
// alignment against a fault-injecting oracle with the retry policy on
// must match the fault-free run round for round.
func TestPublicAPIFlakyCloud(t *testing.T) {
	clean, err := Align("azure-network", DefaultOptions(), AlignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultRetryPolicy()
	policy.BaseDelay, policy.Seed = 0, 42 // zero-delay retries keep the test fast
	faults := UniformFaults(0.1, 42)
	flaky, err := Align("azure-network", DefaultOptions(), AlignConfig{Workers: 4, Faults: &faults, Retry: &policy})
	if err != nil {
		t.Fatal(err)
	}
	if !flaky.Converged {
		t.Error("alignment under chaos+retry did not converge")
	}
	if len(clean.Rounds) != len(flaky.Rounds) {
		t.Fatalf("rounds: clean=%d flaky=%d", len(clean.Rounds), len(flaky.Rounds))
	}
	for i := range clean.Rounds {
		if clean.Rounds[i].Aligned != flaky.Rounds[i].Aligned || flaky.Rounds[i].ExhaustedTransient != 0 {
			t.Errorf("round %d differs under chaos: clean=%+v flaky=%+v", i+1, clean.Rounds[i], flaky.Rounds[i])
		}
	}
}

// TestPublicAPIChaosAndResilientWrappers composes Chaos and Resilient
// around an oracle directly: the pair must be behaviourally invisible.
func TestPublicAPIChaosAndResilientWrappers(t *testing.T) {
	oracle, err := Cloud("ec2")
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultRetryPolicy()
	policy.BaseDelay = 0
	b := Resilient(Chaos(oracle, UniformFaults(0.3, 9)), policy)
	for i := 0; i < 30; i++ {
		res, err := b.Invoke(Request{Action: "CreateVpc", Params: Params{"cidrBlock": Str("10.0.0.0/16")}})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res.Get("vpcId").AsString() == "" {
			t.Fatalf("call %d: %v", i, res)
		}
		b.Reset()
	}
}
