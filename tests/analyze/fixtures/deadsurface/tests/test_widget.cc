#include "widget/widget.hh"

int
testWidget()
{
    const Widget w;
    return w.onlyTested() + w.allowedHook() + w.live() + w.reading();
}
