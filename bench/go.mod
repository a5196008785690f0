module github.com/spritedht/sprite/bench

go 1.23

require github.com/spritedht/sprite v0.0.0

replace github.com/spritedht/sprite => ../
