package synth

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/socialind"
)

// Event is one record on the simulated firehose: either an outlet posting
// (carrying the fetched article markup, as the Datastreamer wrapper
// delivers it) or a reaction to an earlier post.
type Event struct {
	// Type is "posting" for originals or "reaction" otherwise.
	Type string `json:"type"`
	// PostID is the social post id.
	PostID string `json:"post_id"`
	// ParentID is the reacted-to post ("" for postings).
	ParentID string `json:"parent_id,omitempty"`
	// Kind is the socialind.PostKind label.
	Kind string `json:"kind"`
	// OutletID is set on postings.
	OutletID string `json:"outlet_id,omitempty"`
	// UserID is the authoring account.
	UserID string `json:"user_id"`
	// Text is the post body (reply text or the posting's share text).
	Text string `json:"text,omitempty"`
	// ArticleURL is the shared article.
	ArticleURL string `json:"article_url"`
	// ArticleID is the generator's ground-truth article id (postings).
	ArticleID string `json:"article_id,omitempty"`
	// ArticleHTML is the fetched article markup (postings only).
	ArticleHTML string `json:"article_html,omitempty"`
	// Time is the event time.
	Time time.Time `json:"time"`
}

// EventTypePosting and EventTypeReaction are the Event.Type values.
const (
	EventTypePosting  = "posting"
	EventTypeReaction = "reaction"
)

// Events flattens the world into a time-ordered firehose.
func (w *World) Events() []Event {
	var events []Event
	byID := make(map[string]Article, len(w.Articles))
	for _, a := range w.Articles {
		byID[a.ID] = a
	}
	for _, a := range w.Articles {
		for _, p := range w.Cascades[a.ID] {
			ev := Event{
				PostID:     p.ID,
				ParentID:   p.ParentID,
				Kind:       p.Kind.String(),
				UserID:     p.UserID,
				Text:       p.Text,
				ArticleURL: p.ArticleURL,
				Time:       p.Time,
			}
			if p.Kind == socialind.Original {
				ev.Type = EventTypePosting
				ev.OutletID = a.OutletID
				ev.ArticleID = a.ID
				ev.ArticleHTML = a.RawHTML
			} else {
				ev.Type = EventTypeReaction
			}
			events = append(events, ev)
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		return events[i].PostID < events[j].PostID
	})
	return events
}

// Encode serialises the event for the message queue.
func (e *Event) Encode() ([]byte, error) { return json.Marshal(e) }

// DecodeEvent parses a queued event payload.
func DecodeEvent(payload []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(payload, &e); err != nil {
		return Event{}, fmt.Errorf("synth: decode event: %w", err)
	}
	return e, nil
}
