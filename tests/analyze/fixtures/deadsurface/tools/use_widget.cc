#include "widget/widget.hh"

int
main()
{
    const Widget w;
    const Widget *p = &w;
    return w.live() + p->viaArrow() + widgetCount();
}
