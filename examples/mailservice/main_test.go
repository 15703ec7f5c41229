package main

import (
	"strings"
	"testing"
)

// TestMailserviceDeploysFigure6 runs the case study: the three sites
// get the paper's Figure 6 chains, and mail sent through each arrives.
func TestMailserviceDeploysFigure6(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"NY deployment:      MailClient@ny-2 -> MailServer@ny-1*",
		"SD deployment:      MailClient@sd-2 -> ViewMailServer@sd-2{TrustLevel=4} -> Encryptor@sd-2 -> Decryptor@ny-1 -> MailServer@ny-1*",
		"Seattle deployment: ViewMailClient@sea-2 -> ViewMailServer@sea-2{TrustLevel=2} -> Encryptor@sea-2 -> Decryptor@sd-2 -> ViewMailServer@sd-2{TrustLevel=4}*",
		"Bob's inbox (2 messages):",
		`  from Carol  sens=2  "partner note": hello from Seattle`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
