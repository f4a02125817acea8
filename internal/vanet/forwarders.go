package vanet

// Every world links the forwarder arena so Config.Router.Forwarder can
// name any registered strategy, not just the geonet default.
import _ "github.com/vanetsec/georoute/internal/forward"
