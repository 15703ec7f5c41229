package main

import (
	"strings"
	"testing"
)

// TestVideoqosInsertsTranscoders runs the example: across the 10 fps
// link the planner restores the player's 24 fps with transcoders, and
// the frame-rate rule rejects the mappings that would not.
func TestVideoqosInsertsTranscoders(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"viewer at the studio:    VideoPlayer@studio -> VideoSource@studio*",
		"viewer across the WAN:   VideoPlayer@viewer -> Transcoder@viewer -> Transcoder@studio -> VideoSource@studio*",
		"  transcoder at viewer: offers FrameRate=24",
		"  transcoder at studio: offers FrameRate=24",
		"  planner rejected 2 property-invalid mappings (frame-rate rule at work)",
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
